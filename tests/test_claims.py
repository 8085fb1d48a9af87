"""The claims loop: one row per claim, errors isolated, one exit status."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core import claims
from repro.core.claims import CLAIMS, Claim, Interval

ARTIFACT = Path(__file__).parent.parent / "benchmarks/results/paper_claims.txt"


def _rows(out):
    return {words[0]: words[1:] for words in map(str.split, out.splitlines())
            if words[-1:] in (["yes"], ["no"], ["ERROR"])}


def test_claims_prints_the_committed_table_and_every_claim_holds(capsys):
    assert main(["claims"]) == 0
    assert capsys.readouterr().out == ARTIFACT.read_text()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_each_claim_measures_and_holds_unless_reconstructed(claim,
                                                            monkeypatch):
    """One case per row, so a broken claim is named in the test summary."""
    monkeypatch.setattr(claims, "CLAIMS", [claim])
    [verdict] = claims.evaluate()
    assert verdict.error is None, verdict.error
    assert not verdict.fails, (
        f"{claim.id}: measured {verdict.value:.4g}, paper says {claim.bound}")


def test_a_claim_that_raises_is_an_error_row_and_fails_the_run(
        monkeypatch, capsys):
    def boom():
        raise RuntimeError("measured nothing")

    monkeypatch.setattr(claims, "CLAIMS", [
        CLAIMS[0], Claim("x.raises", "Table 5", "", "intact", boom, "= 1"),
        CLAIMS[1]])
    assert main(["claims"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("Paper claims: 2 of 3 intact and prose claims hold")
    assert "ERROR x.raises: RuntimeError: measured nothing" in out
    assert {claim: row[-1] for claim, row in _rows(out).items()} == {
        "x.raises": "ERROR", CLAIMS[0].id: "yes", CLAIMS[1].id: "yes"}


def test_a_failing_reconstructed_row_never_fails_the_run(
        monkeypatch, capsys):
    monkeypatch.setattr(claims, "CLAIMS", [
        CLAIMS[0],
        Claim("x.off", "Table 1", "", "reconstructed", lambda: 200, "~100"),
        Claim("x.raises", "Table 1", "", "reconstructed", lambda: 1 / 0,
              "~100")])
    assert main(["claims"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows["x.off"] == ["~100", "200", "-90", "no"]
    assert rows["x.raises"] == ["~100", "ERROR"]


def test_an_interval_is_open_or_closed_as_written():
    assert Interval("(2, 3]").contains(3) and not Interval("(2, 3]").contains(2)
    assert Interval(">= 0").contains(0) and not Interval("> 0").contains(0)
    assert Interval("<= 0").contains(-5) and not Interval("= 2").contains(2.1)
    assert Interval("~100").contains(110) and not Interval("~100").contains(89)
    assert Interval("(8, 24)").margin(13) == 5
    assert Interval("> 2").margin(1.5) == -0.5
    with pytest.raises(ValueError, match="not an interval: '2 to 3'"):
        Interval("2 to 3")
