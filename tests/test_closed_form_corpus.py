import warnings

import closed_form_corpus as corpus


def test_closed_form_outputs_match_the_corpus():
    # every CSV byte, exit code and stderr line of the closed-form commands on
    # tests/corpus/*.cfg; on another SIMD host, the numbers at corpus.RTOL
    same_host, problems = corpus.compare()
    if not same_host:
        warnings.warn(f"different host ({corpus.host()}): compared at rtol {corpus.RTOL}")
    assert not problems, "\n".join(problems)


def test_a_moved_number_is_found_at_tolerance_and_a_moved_word_is_not_forgiven():
    line = "100,0.9,0.5,0.001,1.58113883008419,ok"
    assert corpus._close_lines(line, line.replace("1.58113883008419", "1.58113883008418"))
    assert not corpus._close_lines(line, line.replace("1.58113883008419", "1.5811388300"))
    assert not corpus._close_lines(line, line.replace("ok", "no"))
