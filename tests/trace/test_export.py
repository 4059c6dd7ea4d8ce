"""Exporter tests: Chrome/Perfetto trace_event JSON and the text timeline."""

import io
import json

from repro.trace import (
    TraceRecorder,
    dump_chrome_trace,
    to_chrome_trace,
    to_text_timeline,
)


def _sample_recorder():
    rec = TraceRecorder()
    rec.span("xfer", "WL0", 0.0, 0.25, device=0, lane="swap_in",
             nbytes=1024, links="gpu0.down", wait=0.0)
    rec.span("compute", "FWD0", 0.25, 1.0, device=0, lane="compute", tid=2,
             mb=0, attempt=0)
    rec.span("compute", "UPD", 1.0, 1.5, device=0, lane="cpu", tid=9)
    rec.instant("fault", "transfer", 0.2, device=0, lane="swap_in")
    rec.instant("restart", "iteration0", 1.5, lane="run")
    rec.span("migration", "W3", 1.5, 1.8, device=1, lane="migration",
             nbytes=4096)
    return rec


def test_chrome_trace_schema(chrome_validator):
    doc = to_chrome_trace(_sample_recorder().events)
    chrome_validator(doc)
    # Round-trips through the JSON codec (Perfetto reads files, not dicts).
    chrome_validator(json.loads(json.dumps(doc)))


def test_chrome_trace_timestamps_are_microseconds():
    events = _sample_recorder().events
    doc = to_chrome_trace(events)
    spans = [r for r in doc["traceEvents"] if r["ph"] == "X"]
    fwd = next(r for r in spans if r["name"] == "FWD0")
    assert fwd["ts"] == 0.25e6
    assert fwd["dur"] == 0.75e6


def test_chrome_trace_pid_mapping():
    """pid 0 is the host; GPU d maps to pid d+1."""
    doc = to_chrome_trace(_sample_recorder().events)
    names = {
        r["pid"]: r["args"]["name"]
        for r in doc["traceEvents"]
        if r["ph"] == "M" and r["name"] == "process_name"
    }
    assert "host" in names[0].lower()
    assert "gpu0" in names[1]
    assert "gpu1" in names[2]


def test_chrome_trace_preserves_meta_args():
    doc = to_chrome_trace(_sample_recorder().events)
    fwd = next(r for r in doc["traceEvents"]
               if r["ph"] == "X" and r["name"] == "FWD0")
    assert fwd["args"]["mb"] == 0


def test_dump_chrome_trace_to_path(tmp_path, chrome_validator):
    out = tmp_path / "trace.json"
    dump_chrome_trace(_sample_recorder().events, out)
    chrome_validator(json.loads(out.read_text()))


def test_dump_chrome_trace_to_file_object(chrome_validator):
    buf = io.StringIO()
    dump_chrome_trace(_sample_recorder().events, buf)
    chrome_validator(json.loads(buf.getvalue()))


def test_text_timeline_renders_lanes_and_instants():
    text = to_text_timeline(_sample_recorder().events)
    assert "gpu0/compute" in text or "gpu0.compute" in text
    assert "migration" in text
    # Control-flow instants are listed, not drawn as bars.
    assert "restart" in text
    assert "fault" in text


def test_text_timeline_empty_trace():
    assert to_text_timeline([]) != ""  # says "empty", never crashes


def test_real_run_exports_clean(toy_traced, chrome_validator):
    _plan, _metrics, recorder = toy_traced
    doc = to_chrome_trace(recorder.events)
    chrome_validator(doc)
    assert len([r for r in doc["traceEvents"] if r["ph"] != "M"]) == len(
        recorder.events
    )
    text = to_text_timeline(recorder.events)
    assert "gpu0" in text and "gpu1" in text
