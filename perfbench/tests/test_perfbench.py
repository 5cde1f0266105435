"""The benchmark's own tests: every check must refuse a deliberately wrong
result, and the tracer must wrap every binding of a traced function.

Run with ``python3 -m pytest perfbench/tests``; they are outside the
project's ``testpaths``.
"""
import json
from collections import Counter

import pytest

import run
import spans
import workloads
from workloads import CheckError


@pytest.fixture(scope="module")
def coassoc():
    return workloads.RestrictCoassoc(seed=0)


@pytest.fixture(scope="module")
def module_filter():
    return workloads.ModuleFilter(seed=0)


@pytest.fixture(scope="module")
def certify():
    return workloads.CertifyCli(seed=0)


# -- restrict-coassoc --------------------------------------------------------

def test_key_window_counts(coassoc):
    shapes = workloads.multisets_up_to(workloads.window_pairs(0, 8, 5), 5)
    assert workloads.recount_keys(0, 8, 5, 5) == len(shapes) == 4163
    assert len(coassoc.items) == 2 * 4163
    coassoc.final_check()
    coassoc.distinct_keys -= 1
    try:
        with pytest.raises(CheckError):
            coassoc.final_check()
    finally:
        coassoc.distinct_keys += 1


def _big_item(w):
    return max(w.items, key=lambda item: (len(item[1]), item[2]))


def test_coassoc_accepts_a_correct_item(coassoc):
    item = _big_item(coassoc)
    coassoc.check(item, coassoc.run(item))


def _changed(d: dict, key, delta=1) -> dict:
    out = dict(d)  # never mutate the program's memoized tensors
    out[key] = out.get(key, 0) + delta
    return out


def test_coassoc_refuses_a_changed_triple_coefficient(coassoc):
    item = _big_item(coassoc)
    step, left, right = coassoc.run(item)
    with pytest.raises(CheckError, match="coassociativity"):
        coassoc.check(item, (step, _changed(left, next(iter(left))), right))


@pytest.mark.parametrize("side", ["key_first", "key_second"])
def test_coassoc_refuses_a_wrong_unit_coefficient(coassoc, side):
    item = _big_item(coassoc)
    key, empty = item[1], coassoc.empty
    step, left, right = coassoc.run(item)
    pair = (key, empty) if side == "key_first" else (empty, key)
    with pytest.raises(CheckError, match="coefficient"):
        coassoc.check(item, (_changed(step, pair), left, right))


def test_coassoc_refuses_a_wrong_coefficient_sum(coassoc):
    item = _big_item(coassoc)
    key, empty = item[1], coassoc.empty
    step, left, right = coassoc.run(item)
    other = next(p for p in step if empty not in p)
    with pytest.raises(CheckError, match="coefficient sum"):
        coassoc.check(item, (_changed(step, other), left, right))


# -- module-filter -------------------------------------------------------------

def test_module_filter_pool(module_filter):
    assert len(module_filter.items) == 1181
    by_base = Counter(type(next(iter(y.terms.coeffs)).base).__name__
                      for _, y in module_filter.items)
    assert sorted(by_base.values()) == [393, 394, 394]


def test_module_filter_accepts_correct_and_refuses_changed_sides(module_filter):
    item = max(module_filter.items, key=lambda it: len(next(iter(it[0].terms.coeffs))))
    lhs, rhs = module_filter.run(item)
    module_filter.check(item, (lhs, rhs))
    FormalSum = module_filter.core.FormalSum
    wrong = type(lhs)(FormalSum(_changed(lhs.terms.coeffs, next(iter(lhs.terms.coeffs)))))
    with pytest.raises(CheckError, match="filtered identity"):
        module_filter.check(item, (wrong, rhs))


def _bump(tensor, key, delta=1):
    FormalSum = type(tensor.terms)
    return type(tensor)(tensor.basis, FormalSum(_changed(tensor.terms.coeffs, key, delta)))


def test_module_filter_final_check_refuses_wrong_closed_form(module_filter, monkeypatch):
    module_filter.final_check()
    g = module_filter.glhopf
    closed = g.twisted_comult_segment_closed

    def wrong_closed(s, ctx):
        t = closed(s, ctx)
        return _bump(t, next(iter(t.terms.coeffs)))

    monkeypatch.setattr(g, "twisted_comult_segment_closed", wrong_closed)
    with pytest.raises(CheckError, match="closed form"):
        module_filter.final_check()


def test_module_filter_final_check_refuses_witness_coefficient(module_filter, monkeypatch):
    g = module_filter.glhopf
    tw, closed = g.twisted_comult, g.twisted_comult_segment_closed
    empty = module_filter.core.ms()
    symmetric = {key for (b2, e2), key in module_filter.segments if b2 == -e2}

    def plus_one_at_unit(t):
        FormalSum = type(t.terms)
        coeffs = {k: c + (k[1] == empty and k[0] in symmetric)
                  for k, c in t.terms.coeffs.items()}
        return type(t)(t.basis, FormalSum(coeffs))

    monkeypatch.setattr(g, "twisted_comult", lambda x, ctx: plus_one_at_unit(tw(x, ctx)))
    monkeypatch.setattr(g, "twisted_comult_segment_closed",
                        lambda s, ctx: plus_one_at_unit(closed(s, ctx)))
    with pytest.raises(CheckError, match="witness"):
        module_filter.final_check()


# -- certify-cli ---------------------------------------------------------------

def _item(w, n, as_json, case_a=True):
    """A case-a (bottom block longer than a point) or case-c datum."""
    for item in w.items:
        alpha, n_, mask, bottom, j = item
        if n_ == n and j == as_json and bottom != case_a and mask & 1 == 0:
            return item
    raise LookupError


def test_certify_pool_and_split(certify):
    assert len(certify.items) == 1200
    assert sum(item[4] for item in certify.items) == 600
    results = [certify.check(item, certify.run(item)) for item in certify.items
               if item[1] <= 2]
    by_chain = {}
    for chain, case in results:
        by_chain.setdefault(chain, Counter())[case] += 1
    for n in (1, 2):
        assert by_chain[("1/2", n)] == workloads.expected_cases(n)


def _all_cases():
    return [((alpha, n), case)
            for alpha in workloads.ALPHAS for n in workloads.CHAIN_LENGTHS
            for case, k in workloads.expected_cases(n).items() for _ in range(k)]


def test_certify_round_check_refuses_a_moved_case(certify):
    results = _all_cases()
    certify.check_round(results)
    chain, case = results[0]
    results[0] = (chain, "case-b" if case != "case-b" else "case-a")
    with pytest.raises(CheckError, match="cases at"):
        certify.check_round(results)
    with pytest.raises(CheckError):
        certify.check_round(_all_cases()[1:])


def test_certify_exit_code_is_a_failure(certify):
    assert certify.failed((1, ""))
    assert not certify.failed((0, ""))


def _json_case(certify, mutate):
    item = _item(certify, 3, True)
    code, text = certify.run(item)
    certify.check(item, (code, text))
    doc = json.loads(text)
    mutate(doc["report"])
    return item, (code, json.dumps(doc))


@pytest.mark.parametrize("mutate, match", [
    (lambda r: r["datum"].update(n=r["datum"]["n"] + 1), "datum not echoed"),
    (lambda r: r.update(ok=False), "report not ok"),
    (lambda r: r.update(certificates=r["certificates"][:4]), "4 distinct"),
    (lambda r: r.update(certificates=r["certificates"][:4] + r["certificates"][:1]),
     "4 distinct"),
    (lambda r: r.update(mult_bound=5), "multiplicity bound 5"),
    (lambda r: r["certificates"][0]["gl"]["segments"][0]["e"].update(
        num2=r["certificates"][0]["gl"]["segments"][0]["e"]["num2"] + 2), "degrees"),
])
def test_certify_refuses_wrong_json_report(certify, mutate, match):
    item, out = _json_case(certify, mutate)
    with pytest.raises(CheckError, match=match):
        certify.check(item, out)


def _text_case(certify, edit, case_a=True):
    item = _item(certify, 3, False, case_a)
    code, text = certify.run(item)
    certify.check(item, (code, text))
    return item, (code, "\n".join(edit(text.splitlines())) + "\n")


def _drop_certificate(lines):
    i = next(i for i, ln in enumerate(lines) if ln.startswith("  certificate: "))
    return lines[:i] + lines[i + 1:]


def _lengthen_certificate(lines):
    i = next(i for i, ln in enumerate(lines) if ln.startswith("  certificate: "))
    return lines[:i] + [lines[i].replace("]@rho", "]@rho, [9,9]@rho", 1)] + lines[i + 1:]


@pytest.mark.parametrize("case_a", [True, False])
@pytest.mark.parametrize("edit, match", [
    (_drop_certificate, "4 distinct"),
    (lambda ls: [ln.replace("<= 4", "<= 5") for ln in ls], "multiplicity bound"),
    (_lengthen_certificate, "degrees"),
    (lambda ls: ls[:-1] + ["  result: FAIL"], "report not ok"),
])
def test_certify_refuses_wrong_text_report(certify, edit, match, case_a):
    item, out = _text_case(certify, edit, case_a)
    with pytest.raises(CheckError, match=match):
        certify.check(item, out)


def test_degree_readers_agree():
    assert workloads.text_degree("L({[5/2,7/2]@rho}; tau([-1/2,1/2]@rho,+;sigma))") == 4
    assert workloads.json_degree(
        {"gl": {"segments": []},
         "temp": {"kind": "temp-base",
                  "base": {"kind": "stgen", "a": {"num2": 1}, "n": 2}}}) == 3


# -- tracing ---------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores(certify, module_filter):
    import cuspline.classical as classical
    import cuspline.cli as cli
    import cuspline.glhopf as glhopf
    import cuspline.jantzen as jantzen
    import cuspline.subquotients as subquotients

    twisted, check = glhopf.twisted_comult, subquotients.check_prop41
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in (glhopf, classical, subquotients, jantzen):
            assert mod.twisted_comult.__wrapped__ is twisted
        assert cli._CHECKS["check-prop41"].__wrapped__ is check
        assert cli.check_prop41.__wrapped__ is check
        first = tracer.reset_counts()
        certify.run(_item(certify, 2, True))
        module_filter.run(module_filter.items[0])
    finally:
        tracer.uninstall()
    assert glhopf.twisted_comult is twisted and classical.twisted_comult is twisted
    assert cli._CHECKS["check-prop41"] is check
    info = {"comult_key": glhopf.comult_key.cache_info(),
            "comult_segment": glhopf.comult_segment.cache_info()}
    metrics = tracer.round_metrics(first, info)
    assert metrics["cli.main_calls"] == metrics["subquotients.check_calls"] == 1
    assert metrics["subquotients.certificates"] == 5
    assert metrics["jantzen.filtered_identity_calls"] == 1
    assert metrics["classical.module_comult_calls"] == 1
    assert metrics["glhopf.twisted_comult_calls"] >= 2
    assert set(metrics) | {"trace.overhead_s"} == {name for name, _ in spans.PER_LAYER}


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.span_names[:] = ["a", "b"]
    for name, parent, start, end in [(0, -1, 0.0, 10.0), (1, 0, 1.0, 3.0), (1, 0, 4.0, 8.0)]:
        tracer.name_of.append(name)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    calls, whole, own = tracer.span_times(0)
    assert calls == {"a": 1, "b": 2}
    assert whole == {"a": 10.0, "b": 6.0}
    assert own == {"a": 4.0, "b": 6.0}


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "certify-cli", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
