import importlib.util
import json
import random
import shutil
from pathlib import Path

import pytest

from asphere import cli, peiffer, presentations, relmod
from asphere.cli import dispatch
from asphere.fixtures import DEFAULT_DIR, load_fixtures, monoid_corpus, monoid_to_json


@pytest.fixture
def tmp_files(tmp_path):
    return tmp_path


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_monoid(path, name="cyc_1_2"):
    path.write_text(json.dumps(monoid_to_json(monoid_corpus()[name])))
    return str(path)


PRES = str(DEFAULT_DIR / "klein.pres")
LOT = str(DEFAULT_DIR / "lot3.pres")
C3 = str(DEFAULT_DIR / "c3.pres")
ONE_SYMBOL = {"rel": "r", "conj": "1", "sign": 1}


class TestExitCodes:
    def test_word_reduce(self, capsys):
        code, out, _ = run(capsys, "word", "reduce", "--gens", "a b", "a a^-1 b")
        assert code == 0 and out.strip() == "b"

    def test_parse_error_is_three(self, capsys, tmp_files):
        bad = tmp_files / "bad.pres"
        bad.write_text("group X\ngens a\nrel r = a c\n")
        code, _, err = run(capsys, "present", "validate", str(bad))
        assert code == 3 and "line 3" in err

    def test_a_second_eliminate_is_three(self, capsys, tmp_files):
        bad = tmp_files / "twice.pres"
        bad.write_text("group g\ngens a b\nrel r = a b a^-1 b^-1\neliminate a\neliminate b\n")
        code, out, err = run(capsys, "present", "validate", str(bad))
        assert code == 3 and out == "" and "line 5" in err and "at most once" in err

    def test_missing_file_is_three(self, capsys):
        code, _, _ = run(capsys, "present", "validate", "/nonexistent.pres")
        assert code == 3

    def test_usage_error_is_three(self, capsys):
        code, _, _ = run(capsys, "present", "solve", PRES)  # missing --gen
        assert code == 3

    @pytest.mark.parametrize(
        "command,data",
        [
            (("peiffer", "boundary", C3), ONE_SYMBOL),
            (("peiffer", "boundary", C3), [1]),
            (("monoid", "validate"), []),
            (("peiffer", "verify", C3, "{seq}"), {"moves": ["x"]}),
            # JSON booleans are not integers, and pool_spec is a string
            (("peiffer", "boundary", C3), [{"rel": "r", "conj": "a", "sign": True}]),
            (("peiffer", "verify", C3, "{seq}"), {"moves": [{"kind": "Delete", "pos": False}]}),
            (("peiffer", "verify", C3, "{seq}"), {"moves": [], "pool_spec": 5}),
            (("monoid", "validate"), {"table": [[False, True], [True, False]]}),
            (("monoid", "validate"), {"table": [[0]], "size": True}),
            (("monoid", "validate"), {"table": [[0, 1], [1, 0]], "identity": False}),
        ],
    )
    def test_wrong_json_shape_is_three(self, capsys, tmp_files, command, data):
        seq, bad = tmp_files / "seq.json", tmp_files / "bad.json"
        seq.write_text(json.dumps([ONE_SYMBOL]))
        bad.write_text(json.dumps(data))
        argv = [arg.format(seq=seq) for arg in command]
        code, _, err = run(capsys, *argv, str(bad))
        assert code == 3 and err.startswith("error: ")

    def test_exhausted_is_two(self, capsys, tmp_files):
        free = tmp_files / "free.pres"
        free.write_text("group F\ngens a\n")
        code, out, _ = run(capsys, "present", "cosets", str(free), "--budget", "50")
        assert code == 2 and out.strip() == "Exhausted"
        # a coset oracle whose enumeration runs out is exhausted, not misused
        seq = tmp_files / "seq.json"
        seq.write_text(json.dumps([ONE_SYMBOL]))
        argv = ("relmod", "gmap", C3, str(seq), "--oracle", "cosets", "--budget", "2")
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 2 and json.loads(out) == {"result": "exhausted", "budget": 2}
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out.strip() == "Exhausted"

    def test_coset_oracle_enumerates_once(self, capsys, tmp_files, monkeypatch):
        calls = []
        real = presentations.coset_table

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # every module binding of the name counts, wherever a run enumerates
        for module in (cli, presentations, relmod):
            if hasattr(module, "coset_table"):
                monkeypatch.setattr(module, "coset_table", counting)
        seq = tmp_files / "seq.json"
        seq.write_text(json.dumps([ONE_SYMBOL]))
        argv = ("relmod", "gmap", C3, str(seq), "--oracle", "cosets")
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0 and json.loads(out) == {"image": {"r": {"1": 1}}}
        assert len(calls) == 1
        # a budget below 1 is an input error, not an exhausted enumeration
        code, out, err = run(capsys, *argv, "--budget", "0")
        assert code == 3 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "command",
        [
            ("peiffer", "search", C3, "{seq}", "--budget", "-1"),
            ("peiffer", "search", C3, "{seq}", "--depth", "-3"),
            ("peiffer", "search", C3, "{seq}", "--budget", "-1", "--depth", "4"),
            ("peiffer", "scramble", C3, "--k", "-3"),
        ],
    )
    def test_negative_search_budget_is_three(self, capsys, tmp_files, command):
        # a negative budget is an input error, not an exhausted search
        seq = tmp_files / "seq.json"
        seq.write_text(json.dumps([ONE_SYMBOL, {**ONE_SYMBOL, "sign": -1}]))
        argv = [arg.format(seq=seq) for arg in command]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "command",
        [
            ("peiffer", "search", C3, "{seq}", "--cap", "8"),
            ("peiffer", "scramble", C3, "--cap", "8"),
            ("suite", "--budget", "10"),
        ],
    )
    def test_constant_settings_are_not_options(self, capsys, tmp_files, command):
        # the insert pool's conjugator cap and the suite's search budget are
        # constants, so naming one on the command line is a usage error
        seq = tmp_files / "seq.json"
        seq.write_text(json.dumps([ONE_SYMBOL, {**ONE_SYMBOL, "sign": -1}]))
        argv = [arg.format(seq=seq) for arg in command]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("usage error: ")

    def test_scramble_without_relators_is_three(self, capsys, tmp_files):
        # nothing can be inserted; the draw used to die in rng.choice([])
        free = tmp_files / "free.pres"
        free.write_text("group free\ngens a b\n")
        code, out, err = run(capsys, "peiffer", "scramble", str(free), "--k", "2")
        assert code == 3 and out == "" and err.startswith("error: ") and "no relators" in err

    def test_negative_scramble_seed_is_three(self, capsys):
        # it used to print the sequence of --seed 5 under pool_spec seed=-5
        sym3 = str(DEFAULT_DIR / "sym3.pres")
        code, out, err = run(capsys, "peiffer", "scramble", sym3, "--k", "4", "--seed", "-5")
        assert code == 3 and out == "" and err.startswith("error: ") and "seed" in err

    def test_cosets_index(self, capsys):
        code, out, _ = run(capsys, "--json", "present", "cosets", str(DEFAULT_DIR / "sym3.pres"))
        assert code == 0 and json.loads(out)["index"] == 6


class TestMonoidCommands:
    def test_validate(self, capsys, tmp_files):
        path = write_monoid(tmp_files / "m.json")
        code, out, _ = run(capsys, "--json", "monoid", "validate", path)
        assert code == 0 and json.loads(out)["size"] == 3

    def test_dominion_of_trivial_submonoid(self, capsys, tmp_files):
        path = write_monoid(tmp_files / "m.json")
        code, out, _ = run(capsys, "--json", "monoid", "dominion", path, "--u", "0")
        assert code == 0 and json.loads(out)["dominion"] == [0]

    def test_tensor_classes(self, capsys, tmp_files):
        path = write_monoid(tmp_files / "m.json")
        code, out, _ = run(capsys, "--json", "monoid", "tensor", path, "--u", "0")
        assert code == 0 and json.loads(out)["classes"] == 9

    def test_wdom_no_is_one(self, capsys, tmp_files):
        path = write_monoid(tmp_files / "m.json")
        code, out, _ = run(capsys, "monoid", "wdom", path, "--u", "0", "--d", "1", "--budget", "100")
        assert code == 1 and out.strip() == "no"

    def test_wdom_yes_is_zero(self, capsys, tmp_files):
        path = write_monoid(tmp_files / "m.json")
        code, out, _ = run(capsys, "monoid", "wdom", path, "--u", "0", "--d", "0", "--budget", "100")
        assert code == 0 and out.strip() == "yes"

    def test_wdom_unknown_is_two(self, capsys, tmp_files):
        path = write_monoid(tmp_files / "m.json")
        code, out, _ = run(capsys, "monoid", "wdom", path, "--u", "0", "--d", "1", "--budget", "1")
        assert code == 2 and out.strip() == "unknown"

    @pytest.mark.parametrize("d", (3, -1))
    def test_wdom_out_of_range_element_is_three(self, capsys, tmp_files, d):
        path = write_monoid(tmp_files / "m.json")
        code, out, err = run(capsys, "monoid", "wdom", path, "--u", "0", "--d", str(d))
        assert code == 3 and out == "" and f"element {d} out of range" in err

    @pytest.mark.parametrize("u,bad", (("0,5", 5), ("0,-1", -1)))
    def test_out_of_range_submonoid_is_three(self, capsys, tmp_files, u, bad):
        path = write_monoid(tmp_files / "m.json")
        code, out, err = run(capsys, "monoid", "dominion", path, "--u", u)
        assert code == 3 and out == "" and f"element {bad} out of range" in err

    @pytest.mark.parametrize("field,value", (("identity", 1), ("size", 4)))
    def test_validate_rejects_a_wrong_declaration(self, capsys, tmp_files, field, value):
        data = {**monoid_to_json(monoid_corpus()["cyc_1_2"]), field: value}
        path = tmp_files / "m.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "monoid", "validate", str(path))
        assert code == 3 and out == "" and f"declared {field}" in err


class TestPeifferCommands:
    def scrambled(self, capsys, tmp_files, k=4):
        code, out, _ = run(
            capsys, "--json", "peiffer", "scramble", PRES, "--seed", "5", "--k", str(k)
        )
        assert code == 0
        data = json.loads(out)
        seq = tmp_files / "seq.json"
        seq.write_text(json.dumps(data["sequence"]))
        cert = tmp_files / "cert.json"
        cert.write_text(json.dumps(data["certificate"]))
        return data, str(seq), str(cert)

    def test_scramble_reports_seed(self, capsys, tmp_files):
        data, _, _ = self.scrambled(capsys, tmp_files)
        assert data["seed"] == 5

    def test_boundary_and_check(self, capsys, tmp_files):
        _, seq, _ = self.scrambled(capsys, tmp_files)
        code, out, _ = run(capsys, "--json", "peiffer", "boundary", PRES, seq)
        assert code == 0 and json.loads(out)["boundary"] == "1"
        code, _, _ = run(capsys, "peiffer", "check", PRES, seq)
        assert code == 0

    def test_check_refutes_non_identity(self, capsys, tmp_files):
        seq = tmp_files / "one.json"
        seq.write_text(json.dumps([{"rel": "r", "conj": "1", "sign": 1}]))
        code, _, _ = run(capsys, "peiffer", "check", PRES, str(seq))
        assert code == 1

    def test_search_verify_round_trip(self, capsys, tmp_files):
        _, seq, _ = self.scrambled(capsys, tmp_files)
        code, out, _ = run(
            capsys, "--json", "peiffer", "search", PRES, seq, "--budget", "50000", "--depth", "8"
        )
        assert code == 0
        found = tmp_files / "found.json"
        found.write_text(json.dumps(json.loads(out)["certificate"]))
        code, out, _ = run(capsys, "peiffer", "verify", PRES, seq, str(found))
        assert code == 0 and out.strip() == "verified"

    def test_verify_rejects_broken_certificate(self, capsys, tmp_files):
        _, seq, _ = self.scrambled(capsys, tmp_files)
        broken = tmp_files / "broken.json"
        broken.write_text(json.dumps({"pool_spec": "", "moves": [{"kind": "Delete", "pos": 99}]}))
        code, out, _ = run(capsys, "--json", "peiffer", "verify", PRES, seq, str(broken))
        assert code == 1 and json.loads(out)["failed_step"] == 0

    def test_search_exhausted_is_two(self, capsys, tmp_files):
        _, seq, _ = self.scrambled(capsys, tmp_files, k=6)
        # a depth limit below the lower bound says so: no iteration ran
        argv = ("peiffer", "search", PRES, seq, "--budget", "2", "--depth", "1")
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out.strip() == "Exhausted (depth limit 1 below lower bound 2)"
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 2
        assert json.loads(out) == {
            "result": "exhausted",
            "budget": 2,
            "depth_limit": 1,
            "lower_bound": 2,
        }
        # a spent budget at a depth limit the bound admits
        argv = ("peiffer", "search", PRES, seq, "--budget", "1", "--depth", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out.strip() == "Exhausted"
        # the c3 identity (r,1,+1)(r,a,-1) has no inverse pair, so every
        # certificate would need at least n - 0 = 2 moves, more than n // 2;
        # the default depth limit is 2n
        planted = tmp_files / "planted.json"
        planted.write_text(json.dumps([ONE_SYMBOL, {"rel": "r", "conj": "a", "sign": -1}]))
        argv = ("peiffer", "search", C3, str(planted), "--budget", "5")
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 2
        assert json.loads(out) == {
            "result": "exhausted",
            "budget": 5,
            "depth_limit": 4,
            "lower_bound": 2,
        }
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out.strip() == "Exhausted"

    def test_search_past_the_recursion_limit_finds_a_certificate(self, capsys, tmp_files):
        # d d^-1 of 1,050 random c3 symbols needs 1,050 moves, past Python's
        # default recursion limit of 1,000; only the budget bounds the depth
        rng = random.Random(0)
        gp = load_fixtures().presentations["c3"]
        d = peiffer.YSequence(gp, tuple(peiffer.random_symbol(gp, rng) for _ in range(1050)))
        seq = tmp_files / "long.json"
        seq.write_text(json.dumps(peiffer.ysequence_to_json(d.concat(peiffer.inverse_sequence(d)))))
        code, out, _ = run(capsys, "--json", "peiffer", "search", C3, str(seq))
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert len(cert["moves"]) == 1050
        cert_file = tmp_files / "cert.json"
        cert_file.write_text(json.dumps(cert))
        assert run(capsys, "peiffer", "verify", C3, str(seq), str(cert_file))[0] == 0

    def test_odd_length_identity_says_no_certificate_exists(self, capsys, tmp_files):
        pres = tmp_files / "odd.pres"
        pres.write_text("group odd\ngens a b\nrel r1 = a\nrel r2 = b\nrel r3 = a b\n")
        odd = tmp_files / "odd.json"
        symbols = [("r1", 1), ("r2", 1), ("r3", -1)]
        odd.write_text(json.dumps([{"rel": r, "conj": "1", "sign": e} for r, e in symbols]))
        argv = ("peiffer", "search", str(pres), str(odd))
        assert run(capsys, "peiffer", "check", str(pres), str(odd))[0] == 0
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert out.strip() == (
            "Exhausted (odd length: every move keeps the parity, so no certificate exists)"
        )
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 2
        assert json.loads(out) == {
            "result": "exhausted",
            "budget": 50_000,
            "depth_limit": 6,
            "lower_bound": 3,
        }

    def test_fiber(self, capsys, tmp_files):
        _, seq, _ = self.scrambled(capsys, tmp_files)
        code, out, _ = run(capsys, "--json", "peiffer", "fiber", PRES, seq, "--n0", "a b a b^-1")
        assert code == 0
        data = json.loads(out)
        assert len(data["sequence"]) == 2 * len(json.loads(Path(seq).read_text()))


class TestRelmodCommand:
    def test_gmap_free_oracle(self, capsys, tmp_files):
        seq = tmp_files / "seq.json"
        seq.write_text(
            json.dumps(
                [
                    {"rel": "r", "conj": "a", "sign": 1},
                    {"rel": "r", "conj": "a", "sign": -1},
                ]
            )
        )
        code, out, _ = run(capsys, "--json", "relmod", "gmap", PRES, str(seq))
        assert code == 0 and json.loads(out)["image"] == {"r": {"a": 2}}

    def test_gmap_coset_oracle_canonicalizes(self, capsys, tmp_files):
        seq = tmp_files / "seq.json"
        seq.write_text(json.dumps([{"rel": "r", "conj": "a a a", "sign": 1}]))
        c3 = str(DEFAULT_DIR / "c3.pres")
        code, out, _ = run(capsys, "--json", "relmod", "gmap", c3, str(seq), "--oracle", "cosets")
        assert code == 0 and json.loads(out)["image"] == {"r": {"1": 1}}

    def test_gmap_abelian_oracle_keeps_raw_keys(self, capsys, tmp_files):
        seq = tmp_files / "seq.json"
        seq.write_text(json.dumps([{"rel": "r", "conj": "a b", "sign": -1}]))
        code, out, _ = run(capsys, "--json", "relmod", "gmap", PRES, str(seq), "--oracle", "abelian")
        assert code == 0 and json.loads(out)["image"] == {"r": {"a b": 1}}

    def test_gmap_signed_variant(self, capsys, tmp_files):
        seq = tmp_files / "seq.json"
        seq.write_text(json.dumps([{"rel": "r", "conj": "a", "sign": -1}]))
        code, out, _ = run(capsys, "--json", "relmod", "gmap", PRES, str(seq), "--signed")
        assert code == 0 and json.loads(out)["image"] == {"r": {"a": -1}}


class TestMiscCommands:
    def test_present_hat(self, capsys, tmp_files):
        mp = tmp_files / "m.pres"
        mp.write_text("monoid M\ngens p q\nrel p q = 1\n")
        code, out, _ = run(capsys, "present", "hat", str(mp))
        assert code == 0 and "rel h1 = p q" in out

    def test_present_lot(self, capsys):
        code, out, _ = run(capsys, "present", "lot", "--n", "3", "--edges", "2,3,1;3,3,2")
        assert code == 0 and "rel r1 = x3 x1 x3^-1 x2^-1" in out

    @pytest.mark.parametrize(
        "n, edges, tree", [("1", "", []), ("2", "2,1,1;", [(2, 1, 1)]), ("2", " ;2,1,1", [(2, 1, 1)])]
    )
    def test_present_lot_skips_empty_edge_parts(self, capsys, n, edges, tree):
        # a blank part is no edge: one vertex has none, and a trailing ";"
        # is accepted as present cosets --subgroup accepts one
        code, out, err = run(capsys, "--json", "present", "lot", "--n", n, "--edges", edges)
        assert code == 0 and err == ""
        expected = presentations.to_text(presentations.lot_presentation(int(n), tree))
        assert json.loads(out) == {"text": expected}

    def test_present_lot_rejects_cycles(self, capsys):
        code, _, _ = run(capsys, "present", "lot", "--n", "2", "--edges", "1,2,2;2,1,1")
        assert code == 3

    def test_present_lot_rejects_more_than_128_generators(self, capsys):
        # a letter is one byte; a star tree on 129 vertices is a usage error
        edges = ";".join(f"{v},1,{v + 1}" for v in range(1, 129))
        code, out, err = run(capsys, "present", "lot", "--n", "129", "--edges", edges)
        assert code == 3 and out == ""
        assert err.strip() == "error: 129 generators; an alphabet holds at most 128"
        code, _, _ = run(capsys, "present", "lot", "--n", "128", "--edges", edges.rsplit(";", 1)[0])
        assert code == 0

    def test_word_subcommands(self, capsys):
        code, out, _ = run(capsys, "word", "conjugate", "--gens", "a b", "a", "b")
        assert code == 0 and out.strip() == "a b a^-1"
        code, out, _ = run(capsys, "word", "exponent", "--gens", "a b", "a a b^-1 a", "--gen", "a")
        assert code == 0 and out.strip() == "3"
        code, out, _ = run(capsys, "word", "abelianize", "--gens", "a b", "a a b^-1")
        assert code == 0 and out.strip() == "2 -1"

    def test_exponent_without_a_generator_names_the_option(self, capsys):
        # it used to say "unknown generator ''"
        code, out, err = run(capsys, "word", "exponent", "--gens", "a b", "a a b^-1")
        assert code == 3 and out == "" and err.strip() == "error: exponent needs --gen"

    def test_search_scaling_rejects_an_unknown_presentation(self, capsys, monkeypatch):
        # an unknown name used to end in a KeyError traceback
        path = Path(__file__).resolve().parents[1] / "scripts" / "search_scaling.py"
        spec = importlib.util.spec_from_file_location("search_scaling", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr("sys.argv", ["search_scaling.py", "--presentation", "nope"])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestXmodCommands:
    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, "--json", "xmod", "check", LOT, "--samples", "10", "--seed", "3")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] and data["seed"] == 3

    def test_check_passes_on_a_residue_without_relators(self, capsys, tmp_files):
        # eliminating x1 leaves no relator, so every relator derivation is
        # trivial and each negative control is vacuous, like its law
        pres = tmp_files / "t.pres"
        pres.write_text("group t\ngens x1 x2\nrel r1 = x2 x1 x2^-1 x2^-1\neliminate x1\n")
        code, out, _ = run(capsys, "--json", "xmod", "check", str(pres), "--samples", "4")
        assert code == 0
        controls = [b for b in json.loads(out)["batteries"] if b["name"].endswith("negative-control")]
        assert len(controls) == 5
        assert all(b["passed"] and b["samples"] == 0 for b in controls)

    def test_project(self, capsys, tmp_files):
        code, out, _ = run(capsys, "--json", "peiffer", "scramble", LOT, "--seed", "2", "--k", "3")
        seq = tmp_files / "seq.json"
        seq.write_text(json.dumps(json.loads(out)["sequence"]))
        code, out, _ = run(capsys, "--json", "xmod", "project", LOT, str(seq))
        assert code == 0 and json.loads(out)["kernel_component"] == "1"

    def test_negative_samples_are_a_usage_error(self, capsys):
        code, out, err = run(capsys, "--json", "xmod", "check", LOT, "--samples", "-2")
        assert code == 3 and out == "" and "non-negative" in err

    def test_zero_samples_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "xmod", "check", LOT, "--samples", "0")
        assert code == 3 and out == "" and "samples must be positive" in err

    def test_text_report_carries_counters(self, capsys):
        code, out, _ = run(capsys, "xmod", "check", LOT, "--samples", "2")
        assert code == 0
        (line,) = [l for l in out.splitlines() if "lot3/projection-pipeline" in l]
        assert line.startswith("ok  lot3/projection-pipeline (2 samples, 0 failures)")
        assert " searched=" in line and " found=" in line


class TestSuiteCommand:
    def test_smoke_mode(self, capsys):
        code, out, _ = run(capsys, "--json", "suite", "--samples", "1")
        assert code == 0 and json.loads(out)["passed"]

    def test_byte_determinism(self, capsys):
        _, out1, _ = run(capsys, "--json", "suite", "--samples", "2", "--seed", "9")
        _, out2, _ = run(capsys, "--json", "suite", "--samples", "2", "--seed", "9")
        assert out1 == out2

    def test_missing_fixture_is_three(self, capsys, tmp_files):
        code, _, err = run(capsys, "suite", "--samples", "1", "--fixtures", str(tmp_files))
        assert code == 3 and "missing fixture" in err

    def test_corrupted_fixture_fails(self, capsys, tmp_files):
        # a loadable but wrong fixture flips the exact-value probe
        for f in DEFAULT_DIR.iterdir():
            shutil.copy(f, tmp_files / f.name)
        (tmp_files / "c3.pres").write_text("group c3\ngens a\nrel r = a a a a\n")
        code, out, _ = run(capsys, "suite", "--samples", "1", "--fixtures", str(tmp_files))
        assert code == 1
        # the text report carries each battery's counters and kept failure details
        assert "FAIL envelope-probe (4 samples, 1 failures)\n      c3: index 4 != 3\n" in out
        assert "ok  scramble-recover (1 samples, 0 failures) found=1\n" in out

    @pytest.mark.parametrize("flag", ("--samples",))
    def test_negative_counts_are_usage_errors(self, capsys, flag):
        code, out, err = run(capsys, "--json", "suite", flag, "-1")
        assert code == 3 and out == "" and "non-negative" in err

    def test_zero_samples_is_a_usage_error(self, capsys):
        # a zero count would draw nothing and report every law battery as passed
        code, out, err = run(capsys, "suite", "--samples", "0")
        assert code == 3 and out == "" and "samples must be positive" in err
