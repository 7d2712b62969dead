"""Fresh-process operations, run under the host-speed sampler (speed.py).

    python child.py <speed-out.json> [--spans <spans-out.json>] cli <cli args...>
    python child.py <speed-out.json> setup <config.json>

``cli`` runs ``thermocasimir.cli.main`` on the arguments, as
``python -m thermocasimir.cli`` does, and exits with its code; with
``--spans`` the import and the package's public functions are traced (see
spans.PACKAGE_WRAPS) and the spans written to that file.  ``setup`` imports
thermocasimir and load_configs the file: the set-up of a user's first call.
Either way the sampler's chunk times are written to ``<speed-out.json>``.
"""
import importlib
import json
import sys

import spans
import speed


def run_cli(cli_args, spans_path):
    if spans_path is None:
        cli = importlib.import_module("thermocasimir.cli")
        return cli.main(cli_args)
    rec = spans.Recorder()
    cli = rec.call("cli.import", importlib.import_module, ("thermocasimir.cli",))
    rec.install({name: importlib.import_module(f"thermocasimir.{name}")
                 for name in ("loops", "potentials", "screening", "force", "cli")})
    try:
        return rec.call("cli.main", cli.main, (cli_args,))
    finally:
        rec.restore()
        with open(spans_path, "w") as fh:
            json.dump(rec.spans, fh)


def run_setup(config_path):
    importlib.import_module("thermocasimir")
    from thermocasimir.config import load_config
    load_config(config_path)
    return 0


def main(argv):
    speed_path, rest = argv[0], argv[1:]
    spans_path = None
    if rest[0] == "--spans":
        spans_path, rest = rest[1], rest[2:]
    verb, args = rest[0], rest[1:]
    run = {"cli": lambda: run_cli(args, spans_path),
           "setup": lambda: run_setup(args[0])}[verb]
    sampler = speed.Sampler()
    try:
        with sampler:
            return run()
    finally:
        with open(speed_path, "w") as fh:
            json.dump(sampler.samples, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
