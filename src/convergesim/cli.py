"""Command-line entry points.

  convergesim run --config FILE [--seed N] [--out DIR]
  convergesim report --bundle FILE --format csv|json|svg [--out DIR]
  convergesim calibrate --anchors FILE
  convergesim serve [--host HOST] [--port PORT] [--socket PATH]

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

import argparse
import sys
from pathlib import Path

from .orchestrator import ConfigError, load_config, load_network, run_scenario
from .reporting import FORMATS, ReportBundle, emit_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convergesim")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="override the output directory")

    report = sub.add_parser("report", help="re-emit report files from a saved bundle")
    report.add_argument("--bundle", required=True)
    report.add_argument("--format", required=True, choices=FORMATS)
    report.add_argument("--out", default=None,
                        help="output directory (default: the bundle's directory)")

    cal = sub.add_parser("calibrate", help="solve the network model from an anchor file")
    cal.add_argument("--anchors", required=True)

    serve = sub.add_parser("serve", help="serve the streaming-ML protocol on a socket")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7461)
    serve.add_argument("--socket", default=None,
                       help="serve on a unix socket at this path instead of TCP")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    bundle = run_scenario(cfg)
    written = emit_report(bundle, cfg.out_dir)
    print(f"scenario {cfg.experiment} seed {cfg.seed}: wrote {len(written)} file(s)")
    for path in written:
        print(f"  {path}")
    return 0


def _cmd_report(args) -> int:
    bundle_path = Path(args.bundle)
    if not bundle_path.is_file():
        raise ConfigError(f"bundle file {bundle_path} does not exist")
    try:
        bundle = ReportBundle.from_json(bundle_path.read_text(encoding="utf-8"))
    except ValueError as err:  # not UTF-8, not JSON or not a bundle
        raise ConfigError(f"bundle file {bundle_path}: {err}") from err
    out_dir = Path(args.out) if args.out else bundle_path.parent
    written = emit_report(bundle, out_dir, (args.format,))
    for path in written:
        print(f"  {path}")
    return 0


def _cmd_calibrate(args) -> int:
    network = load_network(args.anchors)
    for params in (network.os_bypass, network.tap_relay):
        print(f"path {params.path}")
        print(f"  base_latency_s        {params.l0_s!r}")
        print(f"  asymptotic_bw_Bps     {params.bw_inf_Bps!r}")
        print(f"  half_saturation_B     {params.m_half_B!r}")
        print(f"  barrier_base_4node_s  {params.barrier_base_4node_s!r}")
        for nodes, mu_min, mu_max in params.allreduce_mu:
            print(f"  allreduce_mu[{nodes}]      [{mu_min!r}, {mu_max!r}]")
    return 0


def _cmd_serve(args) -> int:
    from .mlserve import serve_tcp, serve_unix

    if args.socket is not None:
        server = serve_unix(args.socket)
        print(f"serving on unix socket {args.socket} (one request per line)")
    else:
        server = serve_tcp(args.host, args.port)
        print(f"serving on {args.host}:{args.port} (one request per line)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "report": _cmd_report,
        "calibrate": _cmd_calibrate,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # the CLI boundary reports failures, not tracebacks
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
