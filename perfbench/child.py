"""One benchmark iteration in a fresh process.

    python3 child.py --spawned T --result FILE [--spans FILE] [--setup-only] \\
        -- <katoflow CLI arguments>

``T`` is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by every process on the host, so
``setup_s`` counts interpreter start, the katoflow import and config
validation.  The katoflow CLI then runs in-process through ``cli.main`` and
the result file records its exit code, wall time and peak RSS.  With
``--spans`` the layer boundaries are traced and the spans written to FILE.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def setup(argv):
    """Import the CLI and validate the run's config, as every CLI call does."""
    from katoflow import cli

    args = cli.build_parser().parse_args(argv)
    config = json.loads(Path(args.config).read_text())
    suites = config if args.command == "all" else {args.command: config}
    for suite, params in suites.items():
        cli._validate(suite, params)
    return cli


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("katoflow_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.katoflow_argv[1:] if args.katoflow_argv[:1] == ["--"] else args.katoflow_argv

    cli = setup(argv)
    result = {"setup_s": time.monotonic() - args.spawned,
              "katoflow": str(Path(cli.__file__).resolve().parent)}
    if not args.setup_only:
        tracer = None
        if args.spans:
            import tracer as tracing

            tracer = tracing.Tracer(run_id=Path(args.spans).stem)
            tracing.install(tracer)
        raised = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a suite that raised is a counted failure, not a crash
            code, raised = None, traceback.format_exc()
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            Path(args.spans).write_text(json.dumps(tracer.spans))
        result.update(exit_code=code, raised=raised)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
