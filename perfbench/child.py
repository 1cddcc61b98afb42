"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/child.py '<request JSON>'

The request holds ``configs`` (key=value dicts, as in a qbchain config
file, each with its own ``out``) and ``mode``: ``setup`` stops once the
configurations are validated, ``run`` runs them through ``qbchain.cli.run``
and ``trace`` does the same with spans recorded around the layers.  The
last line of standard output is a JSON object with ``ready`` (the
``time.monotonic`` at which the configurations were validated) and, unless
``mode`` is ``setup``, ``wall_s``, ``statuses``, ``peak_rss_mb`` and
``cpu_s`` (the interpreter's whole CPU time, set-up included).
"""

import json
import resource
import sys
import time
import traceback


def main(request: dict) -> dict:
    from qbchain import cli

    cfgs = [cli.validate(dict(c)) for c in request["configs"]]
    out = {"ready": time.monotonic()}
    if request["mode"] == "setup":
        return out
    run = cli.run
    if request["mode"] == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        for name in tracer.missing:
            print(f"trace: {name} not found, not traced", file=sys.stderr)
        run = tracer.span("cli.run", cli.run)
    statuses = []
    t0 = time.perf_counter()
    for cfg in cfgs:
        try:
            statuses.append(run(cfg))
        except Exception:  # a crash is one failed command; the rest still run
            traceback.print_exc()
            statuses.append(-1)
    out["wall_s"] = time.perf_counter() - t0
    out["statuses"] = statuses
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    if request["mode"] == "trace":
        out["layers"] = tracer.report()
        out["layers"].update(spans.output_counts(cfgs))
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
