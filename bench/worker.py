"""One pass of one workload, in a fresh interpreter.

Usage: python3 bench/worker.py '<json spec>'

The spec names the checkout root, the workload, the seed, a scratch
directory for this pass, whether to trace, whether to gauge the host's
speed (``reference.Gauge``), whether to stop after set-up, and
``spawned_at``, the parent's ``time.monotonic()`` just before it
started this process.  The last line of standard output is one JSON object
with the pass's timings, per-item outcomes and, when traced, the layer
values.  Set-up time runs from ``spawned_at`` until the inputs are ready.
With the gauge on, ``setup_s``, ``pass_s`` and each item's ``s`` are in
seconds at the reference speed, and the ``*wall_s`` fields give the host's
wall time without the gauge's own samples; without it, both are plain wall
time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads


def _classify_batch(cli, stems, in_dir: Path, out_dir: Path):
    """Run ``heavenly classify IN --dir OUT`` in-process, as a user would.

    Returns the pass's ``time.monotonic()`` window, the exit code, the
    certificate texts by stem, and the window of each ``classify`` call.
    """
    windows = []
    classify = cli.classify

    def timed(*args, **kwargs):
        start = time.monotonic()
        try:
            return classify(*args, **kwargs)
        finally:
            windows.append((start, time.monotonic()))

    cli.classify = timed
    try:
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["classify", str(in_dir), "--dir", str(out_dir)])
        window = (start, time.monotonic())
    finally:
        cli.classify = classify
    certs = {}
    for stem in stems:
        path = out_dir / f"{stem}.cert.json"
        certs[stem] = path.read_text(encoding="utf-8") if path.exists() \
            else None
    return window, code, certs, windows


def _classification_items(workload, stems, code, certs, truth):
    items = []
    for stem in stems:
        item_id = stem.split("-", 1)[1]
        text = certs[stem]
        if text is None:
            items.append({"id": item_id, "s": 0.0, "error": "no certificate",
                          "undecided": False, "digest": None})
            continue
        doc = json.loads(text)
        body = workloads.certificate_body(text)
        if workload == "corpus":
            error = workloads.check_corpus(item_id, body)
        else:
            error = workloads.check_hard(item_id, doc, truth)
        items.append({
            "id": item_id,
            "s": doc["elapsed_seconds"],
            "error": error,
            "undecided": doc["verdict"]["status"] == "unknown",
            "digest": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        })
    expected_code = 3 if any(i["undecided"] for i in items) else 0
    if code != expected_code:
        for item in items:
            item["error"] = item["error"] or (
                f"batch exit code {code}, expected {expected_code}")
    return items


def _verify_pass(verifier, documents, order):
    """Run the checks in order; the pass's window and the items."""
    golden = workloads.load_golden("verify.json")
    items = []
    reports = []
    start = time.monotonic()
    for check_id in order:
        t0 = time.monotonic()
        report = verifier.run_check(check_id)
        reports.append((check_id, (t0, time.monotonic()), report))
    window = (start, time.monotonic())
    for check_id, check_window, report in reports:
        doc = documents.report_document(report)
        elapsed = doc.pop("elapsed_seconds")
        body = json.dumps(doc, sort_keys=True)
        items.append({
            "id": check_id,
            "window": check_window,
            "s": check_window[1] - check_window[0],
            "check_s": elapsed,
            "error": workloads.check_verify(check_id, doc, golden),
            "undecided": False,
            "digest": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        })
    return window, items


def _prepare(spec: dict) -> dict:
    """Import the package and make the inputs: the set-up being timed."""
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import heavenly  # noqa: F401  (set-up includes the package import)
    import heavenly.cli
    import heavenly.documents
    import heavenly.verifier

    workload, seed = spec["workload"], spec["seed"]
    pass_dir = Path(spec["pass_dir"])
    state = {"heavenly": heavenly, "workload": workload,
             "in_dir": pass_dir / "in", "out_dir": pass_dir / "out",
             "truth": None}
    if workload == "corpus":
        state["stems"] = workloads.write_inputs(
            workloads.corpus_inputs(root, seed), state["in_dir"])
    elif workload == "hard":
        state["stems"] = workloads.write_inputs(workloads.hard_inputs(seed),
                                                state["in_dir"])
        state["truth"] = workloads.load_golden("hard_truth.json")
    else:
        state["order"] = workloads.verify_order(seed)
    return state


def _run_pass(state: dict, tracer) -> tuple:
    """The measured pass: its window, and its items with their windows."""
    heavenly = state["heavenly"]
    if tracer is not None:
        patched = tracing.install(tracer)
    try:
        if state["workload"] == "verify":
            window, items = _verify_pass(heavenly.verifier,
                                         heavenly.documents, state["order"])
            return window, items
        window, code, certs, windows = _classify_batch(
            heavenly.cli, state["stems"], state["in_dir"], state["out_dir"])
    finally:
        if tracer is not None:
            tracing.uninstall(patched)
    items = _classification_items(state["workload"], state["stems"], code,
                                  certs, state["truth"])
    if len(windows) == len(items):
        for item, item_window in zip(items, windows):
            item["window"] = item_window
    return window, items


def _duration(window, gauge) -> tuple[float, float]:
    """A window's time at reference speed and its wall time, in seconds.

    Without a gauge both are the plain wall time.  With one, the wall time
    leaves out the kernel's own samples, and the reference-speed time is
    that wall time in kernel repetitions times ``reference.NOMINAL_S``.
    """
    if gauge is None:
        return window[1] - window[0], window[1] - window[0]
    return gauge.units(*window) * reference.NOMINAL_S, gauge.seconds(*window)


def main() -> int:
    spec = json.loads(sys.argv[1])
    gauge = reference.Gauge() if spec["gauge"] else None
    tracer = tracing.Tracer() if spec["trace"] else None
    with gauge or contextlib.nullcontext():
        state = _prepare(spec)
        setup_window = (spec["spawned_at"], time.monotonic())
        if not spec["setup_only"]:
            window, items = _run_pass(state, tracer)

    result = {}
    result["setup_s"], result["setup_wall_s"] = _duration(setup_window, gauge)
    if spec["setup_only"]:
        print(json.dumps(result))
        return 0
    result["pass_s"], result["pass_wall_s"] = _duration(window, gauge)
    for item in items:
        if "window" in item:
            item["s"], item["wall_s"] = _duration(item.pop("window"), gauge)
    result["items"] = items
    result["rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        import heavenly.permgroups
        values, calls = tracing.pass_metrics(
            tracer, result["pass_s"],
            heavenly.permgroups._mult_table.cache_info())
        result["layers"] = values
        result["calls"] = calls
        result["present"] = sorted(tracing.present_layers())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
