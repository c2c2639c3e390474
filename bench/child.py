"""Fresh-process helper for run.py; prints one JSON line on stdout.

    child.py import                         time a cold `import stomod.cli`
    child.py setup WORKLOAD SEED            time import + set-up, then one op
    child.py cli COMMAND OUT_DIR SPANS      run one CLI command under the tracer

stomod is found through PYTHONPATH, which run.py points at the checkout.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402


def _import() -> dict:
    before = len(sys.modules)
    t0 = perf_counter()
    import stomod.cli  # noqa: F401

    return {"import_s": perf_counter() - t0, "modules_loaded": len(sys.modules) - before}


def _setup(workload: str, seed: int) -> dict:
    import workloads

    wl = workloads.IN_PROCESS.get(workload)
    t0 = perf_counter()
    if wl is None:
        workloads.cli_setup()
        return {"setup_s": perf_counter() - t0, "error": None}
    cases = wl.setup(seed)
    setup_s = perf_counter() - t0
    return {"setup_s": setup_s, "error": wl.check(cases[0], wl.op(cases[0]))}


def _cli(command: str, out_dir: str, spans: str) -> int:
    import stomod.cli

    imported = perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.add("import.stomod_cli", T0, imported)
    tracer.install()
    tracer.on = True
    try:
        code = tracer.call(f"cli.{command}", stomod.cli.main,
                           [command, "--out", out_dir], standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    tracer.uninstall()
    tracer.save(spans)
    return code or 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(_cli(*args))
    result = _import() if mode == "import" else _setup(args[0], int(args[1]))
    import json

    print(json.dumps(result))
