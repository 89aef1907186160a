import json
import warnings

import closed_form_corpus as corpus


def test_closed_form_outputs_match_the_corpus():
    # every CSV byte, exit code and stderr line of the closed-form commands on
    # tests/corpus/*.cfg; a CSV whose bytes differ on another SIMD host, at
    # corpus.RTOL
    tolerated, problems = corpus.compare()
    if tolerated:
        warnings.warn(f"different host ({corpus.host()}): {', '.join(tolerated)} "
                      f"compared at rtol {corpus.RTOL}")
    assert not problems, "\n".join(problems)


def test_a_moved_number_is_found_at_tolerance_and_a_moved_word_is_not_forgiven():
    line = "100,0.9,0.5,0.001,1.58113883008419,ok"
    assert corpus._close_lines(line, line.replace("1.58113883008419", "1.58113883008418"))
    assert not corpus._close_lines(line, line.replace("1.58113883008419", "1.5811388300"))
    assert not corpus._close_lines(line, line.replace("ok", "no"))


def test_bytes_are_checked_first_and_the_tolerance_only_off_the_recording_host(monkeypatch):
    # the recorded outputs with one number of one CSV moved in its last digit
    manifest = json.loads((corpus.CORPUS / "manifest.json").read_text())
    recorded = {name: ((corpus.CORPUS / "expected" / f"{name}.csv").read_bytes(),
                       want["exit"], want["stderr"])
                for name, want in manifest["outputs"].items()}
    csv, code, err = recorded["bench.analytic"]
    moved = dict(recorded, **{"bench.analytic": (
        csv.replace(b"0.88217880597608", b"0.88217880597609", 1), code, err)})
    assert moved["bench.analytic"][0] != csv
    for host, outputs, tolerated, failed in [
            (manifest["host"], recorded, [], False),
            ("another host", recorded, [], False),
            (manifest["host"], moved, [], True),
            ("another host", moved, ["bench.analytic"], False)]:
        monkeypatch.setattr(corpus, "host", lambda: host)
        monkeypatch.setattr(corpus, "run", lambda: outputs)
        got, problems = corpus.compare()
        assert got == tolerated
        assert bool(problems) == failed
        assert all("CSV digest differs" in p for p in problems)
