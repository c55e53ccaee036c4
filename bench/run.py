"""tlspr benchmark.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 -m pytest bench          # tests of the benchmark's own logic

Workloads (``harness.WORKLOADS``, listed with reasons in BENCHMARK.json):

* ``sweep-paper``  ``cli.run_trial`` (one ``tlspr sweep`` trial), Gaussian
  N=64, M/N=8, 20 dB measurement / 10 dB sensing SNR.
* ``sweep-tall``   the same at N=32, M/N=128; also checks that the median
  TLS error is below the median LS error.
* ``solve-cdp``    ``cli.main(["solve", ...])`` on binary CDP files
  (N=128, L=8, written by ``tlspr synthesize`` during set-up), TLS then LS.

Each op's outputs are checked (finite errors, converged solves, and for
``solve-cdp`` the report's ``rel_dist`` against the saved solution); an op
that fails a check counts in ``failed``.

End-to-end metrics (``--trace 0``):

* ``setup_s``       median over fresh processes of the time from process
  start to the first timed op: imports, inputs, one warm-up op.
* ``ops_per_s``, ``op_ms_p50``, ``op_ms_p90``  throughput and latency of
  the per-input best times (fastest of at least five repeats per input).
* All four times are scaled to the reference machine's speed with a fixed
  calibration kernel timed before every op (see ``harness``); the raw
  values and the scale factor are in the result file.
* ``peak_rss_mb``   ``ru_maxrss`` of the run's process.
* ``rel_dist_tls_p50``, ``rel_dist_ls_p50``  median reconstruction error
  over the distinct inputs.
* ``ops`` and ``fail_frac`` are printed beside them and saved in the result
  file; the last line carries them as ``attempted`` and ``failed``.

Per-layer metrics (``--trace 1``) come from spans recorded around the calls
into each ``tlspr`` module, per traced op unless the name says otherwise.
The untraced and traced runs of each input alternate, which gives
``trace.overhead_frac``.  Spans are written to ``.bench_out/spans_*.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller result with run metadata
goes to ``.bench_out/BENCH_<workload>_seed<N>_trace<T>.json``.  BLAS and the
library's sweep pool are pinned to one thread before numpy is imported.
"""

import os
import sys

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["TLSPR_WORKERS"] = "1"

    from harness import main

    sys.exit(main(sys.argv[1:]))
