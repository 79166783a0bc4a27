"""Synthetic gradient oracles and CSV ingestion."""

import numpy as np
import pytest

from sgdci import models
from sgdci.errors import ExhaustedData, LabelDomainError, ParseError
from sgdci.models import (
    TrueParams,
    ingest_csv,
    linear_gradient,
    linear_oracle,
    linspace_params,
    logistic_gradient,
    logistic_oracle,
)
from sgdci.sgd import SgdRunConfig, run_chains
from sgdci.streams import derive_stream


class TestParams:
    def test_linspace_d1_is_midpoint(self):
        assert linspace_params(1).x_star.tolist() == [0.5]

    def test_linspace_d2_endpoints(self):
        assert linspace_params(2).x_star.tolist() == [0.0, 1.0]

    def test_linspace_d3_includes_midpoint(self):
        assert linspace_params(3).x_star.tolist() == [0.0, 0.5, 1.0]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TrueParams(np.array([1.0, np.nan]))


class TestGradients:
    def test_linear_hand_value(self):
        # a=1, b=1, x=0: -2 (1 - 0) * 1 = -2
        g = linear_gradient(np.array([0.0]), np.array([1.0]), 1.0)
        assert g[0] == pytest.approx(-2.0)

    def test_logistic_hand_value(self):
        # a=2, b=+1, x=0: -1 * (1/2) * 2 = -1
        g = logistic_gradient(np.array([0.0]), np.array([2.0]), 1.0)
        assert g[0] == pytest.approx(-1.0)

    def test_logistic_norm_bound(self):
        gen = derive_stream(200)
        for _ in range(50):
            a = gen.standard_normal(3)
            x = gen.standard_normal(3)
            b = 1.0 if gen.random() < 0.5 else -1.0
            g = logistic_gradient(x, a, b)
            assert np.linalg.norm(g) <= np.linalg.norm(a) + 1e-12


class TestOracles:
    def test_linear_unbiased_at_target(self):
        params = linspace_params(2)
        oracle = linear_oracle(params)
        stream = derive_stream(201)
        grads = np.array(
            [oracle.next_gradient(params.x_star, stream) for _ in range(10**5)]
        )
        # per-coordinate variance is about 4, so 4 sigma is ~0.025
        assert np.all(np.abs(grads.mean(axis=0)) < 0.05)

    def test_linear_mean_gradient_away_from_target(self):
        # with standard normal covariates the mean gradient at x is 2(x - x*)
        params = linspace_params(2)
        oracle = linear_oracle(params)
        stream = derive_stream(202)
        x = np.array([1.0, -1.0])
        grads = np.array([oracle.next_gradient(x, stream) for _ in range(10**5)])
        expected = 2.0 * (x - params.x_star)
        assert np.allclose(grads.mean(axis=0), expected, atol=0.08)

    def test_logistic_labels_balanced_at_zero_target(self):
        # at x* = 0 every label is a fair coin; recover b exactly by
        # mirroring the oracle's noise stream (a is the first draw, so
        # g = -b * a / 2 at x = 0 inverts to b = -2 g / a)
        oracle = logistic_oracle(TrueParams(np.array([0.0])))
        live, mirror = derive_stream(203), derive_stream(203)
        labels = np.empty(10**5)
        for i in range(10**5):
            n = mirror.standard_normal(2)
            g = oracle.next_gradient(np.zeros(1), live)
            labels[i] = -2.0 * g[0] / n[0]
        assert np.allclose(np.abs(labels), 1.0)
        assert abs(float(np.mean(labels > 0)) - 0.5) < 0.01

    def test_oracle_streams_reproducible(self):
        params = linspace_params(3)
        for factory in (linear_oracle, logistic_oracle):
            a = factory(params).next_gradient(np.zeros(3), derive_stream(204))
            b = factory(params).next_gradient(np.zeros(3), derive_stream(204))
            assert np.array_equal(a, b)


class TestIngestCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_linear_roundtrip(self, tmp_path):
        p = self._write(tmp_path, "a_1,a_2,b\n1.0,0.0,2.0\n0.0,1.0,-1.0\n")
        rows, oracle = ingest_csv(p, "linear")
        assert len(rows) == 2
        assert oracle.dim == 2
        g = oracle.next_gradient(np.zeros(2), derive_stream(0))
        assert np.allclose(g, [-4.0, 0.0])

    def test_exhaustion(self, tmp_path):
        p = self._write(tmp_path, "a_1,b\n1.0,2.0\n1.0,2.0\n1.0,2.0\n")
        _, oracle = ingest_csv(p, "linear")
        s = derive_stream(0)
        for _ in range(3):
            oracle.next_gradient(np.zeros(1), s)
        with pytest.raises(ExhaustedData):
            oracle.next_gradient(np.zeros(1), s)

    def test_single_covariate_header(self, tmp_path):
        p = self._write(tmp_path, "a_1,b\n1.0,2.0\n")
        rows, oracle = ingest_csv(p, "linear")
        assert oracle.dim == 1
        assert rows[0, -1] == 2.0

    def test_utf8_bom_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte order mark
        text = "a_1,a_2,b\n1.0,0.0,2.0\n0.0,1.0,-1.0\n"
        plain, _ = ingest_csv(self._write(tmp_path, text), "linear")
        bom, oracle = ingest_csv(self._write(tmp_path, "\ufeff" + text, "bom.csv"), "linear")
        assert np.array_equal(bom, plain) and oracle.dim == 2

    def test_wrong_header(self, tmp_path):
        p = self._write(tmp_path, "x,y\n1.0,2.0\n")
        with pytest.raises(ParseError):
            ingest_csv(p, "linear")

    def test_bad_cell_diagnostics(self, tmp_path):
        # unparsable text, a digit separator float() would accept (1_0 as
        # 10.0), and parsable but non-finite values, which would otherwise
        # surface as a diverging iterate steps later
        for cell in ("oops", "1_0", "nan", "inf", "-inf"):
            text = f"a_1,a_2,b\n1.0,0.5,2.0\n1.0,{cell},3.0\n0.5,nan,1.0\n"
            p = self._write(tmp_path, text)
            with pytest.raises(ParseError) as exc:
                ingest_csv(p, "linear")
            msg = str(exc.value)
            assert "row 2" in msg and "column 2" in msg, cell

    def test_ragged_row(self, tmp_path):
        p = self._write(tmp_path, "a_1,a_2,b\n1.0,2.0\n")
        with pytest.raises(ParseError):
            ingest_csv(p, "linear")

    def test_logistic_label_domain(self, tmp_path):
        p = self._write(tmp_path, "a_1,b\n1.0,0.0\n")
        with pytest.raises(LabelDomainError):
            ingest_csv(p, "logistic")

    def test_logistic_accepts_plus_minus_one(self, tmp_path):
        p = self._write(tmp_path, "a_1,b\n1.0,1.0\n2.0,-1.0\n")
        rows, _ = ingest_csv(p, "logistic")
        assert rows[:, -1].tolist() == [1.0, -1.0]

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(ParseError):
            ingest_csv(p, "linear")

    def test_header_only(self, tmp_path):
        p = self._write(tmp_path, "a_1,b\n")
        with pytest.raises(ParseError):
            ingest_csv(p, "linear")

    def test_model_kind_validated(self, tmp_path):
        p = self._write(tmp_path, "a_1,b\n1.0,2.0\n")
        with pytest.raises(ValueError):
            ingest_csv(p, "poisson")

    def test_replay_feeds_one_chain_only(self, tmp_path):
        # one cursor would hand two chains interleaved slices of the rows
        p = self._write(tmp_path, "a_1,b\n" + "1.0,2.0\n" * 200)
        for threads in (1, 2):
            _, oracle = ingest_csv(p, "linear")
            with pytest.raises(ValueError, match="one chain"):
                run_chains(oracle, SgdRunConfig(T=50), [derive_stream(0), derive_stream(1)],
                           [[0, 50]], threads=threads)
        _, oracle = ingest_csv(p, "linear")
        oracle.next_gradient(np.zeros(1), derive_stream(0))
        with pytest.raises(ValueError, match="one chain"):
            oracle.next_gradient(np.zeros(1), derive_stream(0))

    # Inputs on which np.loadtxt and the row walk could disagree; each value
    # or message is what the row walk alone gave before plain files took the
    # C parse. "\x1c" is a separator np.loadtxt strips and float() rejects.
    @pytest.mark.parametrize("kind, text, expected", [
        ("linear", "a_1,b\n1,2\n\n3,4\n", (ParseError, "row 2 has 0 fields, expected 2")),
        ("linear", "a_1,b\n1,2\n  \n3,4\n", (ParseError, "row 2 has 1 fields, expected 2")),
        ("linear", "a_1,b\n\n\n", (ParseError, "row 1 has 0 fields, expected 2")),
        ("linear", 'a_1,b\n"1.5",2\n3,4\n', [[1.5, 2.0], [3.0, 4.0]]),
        ("linear", 'a_1,b\n"1,5",2\n',
         (ParseError, "row 1, column 1: could not parse '1,5' as a number")),
        ("linear", "a_1,b\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("linear", "a_1,b\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        ("linear", "a_1,b\n1,2,\n3,4,\n", (ParseError, "row 1 has 3 fields, expected 2")),
        ("linear", "a_1,b\n1_0,2\n",
         (ParseError, "row 1, column 1: could not parse '1_0' as a number")),
        ("linear", "a_1,b\n\u0661,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("linear", "a_1,b\n1,2\nnan,4\n",
         (ParseError, "row 2, column 1: nan is not a finite number")),
        ("logistic", "a_1,b\n1,1\n2,0\n",
         (LabelDomainError, "row 2: logistic response must be -1 or +1, got 0.0")),
        ("linear", "a_1,b\n1,\x1c2\n",
         (ParseError, "row 1, column 2: could not parse '\\x1c2' as a number")),
        ("linear", "a_1,b\n 1 ,\t2\t\n", [[1.0, 2.0]]),
        ("linear", b"a_1,b\n1,x\n" + b"1,2\n" * 5000 + b"\xff,1\n",
         (ParseError, "row 1, column 2: could not parse 'x' as a number")),
    ], ids=["blank_line", "whitespace_line", "blank_lines_only", "quoted_number", "quoted_comma", "crlf", "lone_cr",
            "trailing_comma", "digit_separator", "arabic_digit", "nan", "logistic_zero",
            "info_separator", "spaces_and_tabs", "bad_row_before_invalid_utf8"])
    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on input with no data
    def test_c_parse_and_row_walk_agree(self, tmp_path, kind, text, expected):
        p = tmp_path / "data.csv"
        if isinstance(text, bytes):
            p.write_bytes(text)
        else:
            p.write_text(text, encoding="utf-8", newline="")
        if isinstance(expected, list):
            rows, _ = ingest_csv(p, kind)
            assert np.array_equal(rows, expected) and rows.dtype == np.float64
        else:
            error, message = expected
            with pytest.raises(Exception) as exc:
                ingest_csv(p, kind)
            assert type(exc.value) is error and str(exc.value) == f"{p}: {message}"

    def test_plain_file_values_are_float_of_each_cell(self, tmp_path, monkeypatch):
        # a plain file takes the C parse; every value must be float(cell)
        monkeypatch.setattr(models, "_walk_rows", None)
        z = np.random.default_rng(3).standard_normal((4, 50, 3))
        blocks = [("%r", z[0]), ("%.3g", z[1]), ("%.6e", z[2] * 1e8), ("%.0f", z[3] * 9)]
        cells = [[fmt % v for v in row.tolist()] for fmt, rows in blocks for row in rows]
        p = tmp_path / "data.csv"
        p.write_text("a_1,a_2,b\n" + "".join(",".join(r) + "\n" for r in cells), encoding="utf-8")
        rows, _ = ingest_csv(p, "linear")
        assert np.array_equal(rows, [[float(c) for c in r] for r in cells])

    def test_replay_is_deterministic(self, tmp_path):
        p = self._write(tmp_path, "a_1,b\n0.5,1.0\n-2.0,0.5\n")
        runs = []
        for _ in range(2):
            _, oracle = ingest_csv(p, "linear")
            s = derive_stream(0)
            runs.append(
                [oracle.next_gradient(np.array([0.1]), s)[0] for _ in range(2)]
            )
        assert runs[0] == runs[1]
