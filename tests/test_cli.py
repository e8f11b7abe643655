"""End-to-end command line tests: exit codes, canonical JSON, round trips."""

import io
import json
import time

import pytest

from koszulity import cli, homology
from koszulity.cli import main

from conftest import run_capped

EXIT_OK, EXIT_NON_KOSZUL, EXIT_INPUT, EXIT_DISAGREE, EXIT_INTERNAL = 0, 1, 2, 3, 4


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def exterior2_presentation():
    return {"l": 2, "mode": "super", "generators": ["x0", "x1"],
            "relations": []}


def triangle_datum():
    """Hand-crafted datum whose symbol algebra is the triangle quotient:
    three dim-2 places, each quadratic monomial supported at its own place."""
    gram = [[0, 1], [2, 0]]
    zero2 = [0, 0]

    def place(label):
        return {"label": label, "kind": "nonarch", "flagged": True,
                "gram": gram, "minus1": zero2}

    def gen(label, images):
        return {"label": label, "images": images, "ord": {}, "frob": {}}

    return {
        "l": 3, "sqrt_minus1": False, "reciprocity": False,
        "s_places": [place("v1"), place("v2"), place("v3")],
        "outside_places": [],
        "generators": [
            gen("x0", [[1, 0], [1, 0], zero2]),
            gen("x1", [[0, 1], zero2, [1, 0]]),
            gen("x2", [zero2, [0, 1], [0, 1]]),
        ],
        "lagrangian": None, "minus1_coeffs": None,
    }


class TestTor:
    def test_exterior_two_generators_table(self, capsys, tmp_path):
        path = write_json(tmp_path, "p.json", exterior2_presentation())
        code, out, _ = run(capsys, "tor", path, "--max-i", "4", "--max-j", "4",
                           "--format", "json")
        assert code == EXIT_OK
        dims = json.loads(out)["dims"]
        for i in range(5):
            for j in range(5):
                assert dims[i][j] == (i + 1 if i == j else 0)

    def test_triangle_datum_h23(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", triangle_datum())
        code, out, _ = run(capsys, "tor", path, "--max-i", "3", "--max-j", "3",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["dims"][2][3] != 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "tor", "/nonexistent/input.json")
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_text_format(self, capsys, tmp_path):
        path = write_json(tmp_path, "p.json", exterior2_presentation())
        code, out, _ = run(capsys, "tor", path)
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("i\\j")

    def test_huge_max_i_prints_rows_through_max_j(self, capsys, tmp_path):
        # rows with i > max_j are zero by degree and are not printed
        path = write_json(tmp_path, "p.json", exterior2_presentation())
        start = time.monotonic()
        code, out, _ = run(capsys, "tor", path, "--max-i", str(10 ** 12), "--max-j", "2")
        assert time.monotonic() - start < 5
        assert code == EXIT_OK
        assert [line.split()[0] for line in out.splitlines()[1:]] == ["0", "1", "2"]


class TestCheck:
    def test_local_symplectic_koszul(self, capsys, tmp_path, monkeypatch):
        code, gen_out, _ = run(capsys, "gen", "local", "--case", "symplectic",
                               "--dim", "2", "--l", "3")
        assert code == EXIT_OK
        code, out, _ = run(capsys, "check", "-", stdin=gen_out,
                           monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert "agreement: AGREE" in out
        assert "verdict: koszul" in out

    def test_huge_max_i_is_bounded_by_max_j(self, capsys, monkeypatch):
        # bar terms with i > j vanish: the work is bounded by --max-j
        _, gen_out, _ = run(capsys, "gen", "local", "--case", "symplectic",
                            "--dim", "2", "--l", "3")
        start = time.monotonic()
        code, out, _ = run(capsys, "check", "-", "--max-i", str(10 ** 12), "--max-j", "4",
                           stdin=gen_out, monkeypatch=monkeypatch)
        assert time.monotonic() - start < 5
        assert code == EXIT_OK
        assert "verdict: koszul" in out

    def test_triangle_non_koszul(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", triangle_datum())
        code, out, _ = run(capsys, "check", path, "--max-i", "3", "--max-j", "3")
        assert code == EXIT_NON_KOSZUL
        assert "agreement: AGREE" in out
        assert "verdict: non-koszul" in out

    def test_corrupted_datum_validator(self, capsys, tmp_path):
        obj = triangle_datum()
        obj["reciprocity"] = True  # symbols no longer sum to zero
        path = write_json(tmp_path, "bad.json", obj)
        code, _, err = run(capsys, "check", path)
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_json_format(self, capsys, tmp_path):
        path = write_json(tmp_path, "p.json", exterior2_presentation())
        code, out, _ = run(capsys, "check", path, "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["verdict"] == "koszul"
        assert obj["agreement"] == "AGREE"

    def test_entry_beyond_int64(self, capsys, tmp_path):
        obj = triangle_datum()
        obj["s_places"][0]["gram"][0][1] = 2 ** 64
        path = write_json(tmp_path, "big.json", obj)
        code, _, err = run(capsys, "check", path)
        assert code == EXIT_INPUT
        assert err.startswith("error:") and "Traceback" not in err

    def test_malformed_json(self, capsys, monkeypatch):
        code, _, err = run(capsys, "check", "-", stdin="not json",
                           monkeypatch=monkeypatch)
        assert code == EXIT_INPUT

    def test_non_object_input(self, capsys, monkeypatch):
        code, _, _ = run(capsys, "check", "-", stdin="[1,2]",
                         monkeypatch=monkeypatch)
        assert code == EXIT_INPUT

    def test_neither_flavor(self, capsys, monkeypatch):
        code, _, _ = run(capsys, "check", "-", stdin="{}",
                         monkeypatch=monkeypatch)
        assert code == EXIT_INPUT


GEN_CASES = [
    ("local", ["--case", "symplectic", "--dim", "2", "--l", "3"]),
    ("local", ["--case", "two_zero", "--dim", "2", "--l", "2"]),
    ("local", ["--case", "two_nonzero", "--dim", "3", "--l", "2"]),
    ("local", ["--case", "noroot", "--dim", "2", "--l", "3"]),
    ("global-symplectic", ["--l", "3", "--s-places", "2", "--outside", "1,1"]),
    ("global-general", ["--l", "2", "--s-places", "2", "--real-places", "1"]),
    ("annihilator", ["--l", "2", "--s-places", "3", "--real-places", "1"]),
    ("noroot", ["--l", "3", "--s-places", "2", "--outside", "1"]),
]


class TestGen:
    @pytest.mark.parametrize("kind,flags", GEN_CASES,
                             ids=[f"{k}-{i}" for i, (k, _) in enumerate(GEN_CASES)])
    def test_round_trip_through_check(self, capsys, monkeypatch, kind, flags):
        code, out, _ = run(capsys, "gen", kind, *flags)
        assert code == EXIT_OK
        code, _, err = run(capsys, "check", "-", stdin=out,
                           monkeypatch=monkeypatch)
        assert code == EXIT_OK, err

    @pytest.mark.parametrize("kind,flags", GEN_CASES,
                             ids=[f"{k}-{i}" for i, (k, _) in enumerate(GEN_CASES)])
    def test_deterministic(self, capsys, kind, flags):
        a = run(capsys, "gen", kind, *flags, "--seed", "4")[1]
        b = run(capsys, "gen", kind, *flags, "--seed", "4")[1]
        assert a == b

    def test_canonical_json(self, capsys):
        code, out, _ = run(capsys, "gen", "local", "--case", "symplectic",
                           "--dim", "2", "--l", "3")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert out.strip() == json.dumps(obj, sort_keys=True,
                                         separators=(",", ":"))

    def test_noroot_l2_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "noroot", "--l", "2")
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_unknown_kind(self, capsys):
        code, _, _ = run(capsys, "gen", "bogus")
        assert code == EXIT_INPUT

    def test_unknown_case(self, capsys):
        code, _, _ = run(capsys, "gen", "--case", "nope")
        assert code == EXIT_INPUT

    def test_seed_changes_output(self, capsys):
        a = run(capsys, "gen", "global-symplectic", "--l", "3", "--seed", "0")[1]
        b = run(capsys, "gen", "global-symplectic", "--l", "3", "--seed", "1")[1]
        assert a != b


def test_no_disagreement_across_sweep(capsys, monkeypatch):
    """Exit code 3 must never occur for any generated model."""
    for kind, flags in GEN_CASES:
        for seed in ("0", "1"):
            _, out, _ = run(capsys, "gen", kind, *flags, "--seed", seed)
            code, _, _ = run(capsys, "check", "-", stdin=out,
                             monkeypatch=monkeypatch)
            assert code != EXIT_DISAGREE


# 2^32 + 15 and 2^64 - 59 are prime: above the bound, int64 products
# overflow, and trial division of the larger one would not finish in useful time
LARGE_PRIMES = ["4294967311", "18446744073709551557"]


@pytest.mark.parametrize("l", LARGE_PRIMES)
@pytest.mark.parametrize("command", ["gen", "check", "tor"])
def test_modulus_above_bound_exits_2(capsys, monkeypatch, command, l):
    if command == "gen":
        argv = ["gen", "local", "--case", "symplectic", "--dim", "2", "--l", l]
        stdin = None
    else:
        argv = [command, "-"]
        stdin = json.dumps({"l": int(l), "mode": "super",
                            "generators": ["x0", "x1"], "relations": []})
    start = time.monotonic()
    code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert time.monotonic() - start < 5
    assert code == EXIT_INPUT
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "too large" in lines[0] and "Traceback" not in err


def assert_one_error_line(code, out, err):
    assert code == EXIT_INPUT
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--max-i", "--max-j", "--max-n"])
@pytest.mark.parametrize("command", ["tor", "check"])
def test_negative_window_bound_exits_2(capsys, tmp_path, command, flag):
    path = write_json(tmp_path, "t.json", triangle_datum())
    assert_one_error_line(*run(capsys, command, path, flag, "-1"))


def relation(coef):
    return [[{"mono": "x0*x1", "coef": coef}]]


@pytest.mark.parametrize("field,value", [
    ("generators", "abc"),
    ("relations", relation(1.7)),
    ("relations", relation(True)),
    ("l", 2.0),
    ("relations", [[{"mono": 5, "coef": 1}]]),
], ids=["generators-string", "coef-float", "coef-bool", "l-float", "mono-int"])
@pytest.mark.parametrize("command", ["tor", "check"])
def test_presentation_types_checked(capsys, monkeypatch, command, field, value):
    obj = exterior2_presentation()
    obj[field] = value
    assert_one_error_line(*run(capsys, command, "-", stdin=json.dumps(obj),
                               monkeypatch=monkeypatch))


def change_path(obj, path, change):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = change(obj.get(path[-1]) if isinstance(obj, dict) else obj[path[-1]])


# each array entry keeps its value and changes only its type, which the
# loader used to accept silently (np.array truncates floats, reads bools as ints)
@pytest.mark.parametrize("path,change", [
    (("generators", 0, "ord"), lambda v: [1]),
    (("generators", 0, "frob", "p"), lambda v: 1.5),
    (("l",), lambda v: 2.9),
    (("outside_places", 0, "flagged"), lambda v: "no"),
    (("s_places", 0, "flagged"), int),
    (("sqrt_minus1",), int),
    (("reciprocity",), lambda v: "yes"),
    (("s_places", 0, "label"), lambda v: 7),
    (("outside_places", 0, "label"), lambda v: None),
    (("generators", 0, "label"), lambda v: [v]),
    (("s_places", 0, "gram", 0, 0), float),
    (("s_places", 0, "minus1", 0), float),
    (("generators", 0, "images", 0, 0), float),
    (("lagrangian", 0, 0), float),
    (("minus1_coeffs", 0), bool),
], ids=["ord-list", "frob-float", "l-float", "flagged-string", "flagged-int",
        "sqrt_minus1-int", "reciprocity-string", "s-label-int", "outside-label-null",
        "generator-label-list", "gram-float", "minus1-float", "images-float",
        "lagrangian-float", "minus1_coeffs-bool"])
def test_datum_types_checked(capsys, monkeypatch, path, change):
    _, out, _ = run(capsys, "gen", "global-general", "--l", "2", "--s-places", "2",
                    "--real-places", "1")
    obj = json.loads(out)
    change_path(obj, path, change)
    code, out, err = run(capsys, "check", "-", stdin=json.dumps(obj),
                         monkeypatch=monkeypatch)
    assert_one_error_line(code, out, err)
    assert " must be " in err


@pytest.mark.parametrize("command", ["tor", "check"])
def test_internal_error_exits_4(capsys, tmp_path, monkeypatch, command):
    def broken(*args, **kwargs):
        raise AssertionError("bar differential fails d^2=0 at j=3")

    monkeypatch.setattr(cli, "tor_algebra", broken)
    path = write_json(tmp_path, "p.json", exterior2_presentation())
    code, out, err = run(capsys, command, path)
    assert code == EXIT_INTERNAL
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error:")
    assert "d^2=0" in lines[0] and "Traceback" not in err


def test_euler_certificate_failure_exits_4(capsys, tmp_path, monkeypatch):
    """An engine whose table is off by one at Tor_{1,2}(k, A_+) fails the
    run-time Euler certificate in degree 2."""
    bar = homology.bar_tor_module

    def off_by_one(*args):
        t = bar(*args)
        t.dims[(1, 2)] = t.entry(1, 2) + 1
        return t

    monkeypatch.setattr(homology, "bar_tor_module", off_by_one)
    path = write_json(tmp_path, "p.json", exterior2_presentation())
    code, out, err = run(capsys, "check", path)
    assert code == EXIT_INTERNAL and out == ""
    assert err == "internal error: AssertionError: " \
        "Tor table fails the Euler characteristic at j=2\n"


def drop_last_image(obj):
    obj["generators"][0]["images"].pop()


def shorten_first_image(obj):
    obj["generators"][0]["images"][0].pop()


# the validator flags malformed images and stops there: the -1, Lagrangian
# and reciprocity checks that follow read every image
@pytest.mark.parametrize("damage,message", [
    (drop_last_image, "wrong number of local images"),
    (shorten_first_image, "bad image at v0"),
], ids=["missing-image", "short-image"])
@pytest.mark.parametrize("command", ["tor", "check"])
def test_malformed_images_exit_2(capsys, monkeypatch, command, damage, message):
    _, out, _ = run(capsys, "gen", "global-symplectic", "--l", "3")
    obj = json.loads(out)
    damage(obj)
    code, out, err = run(capsys, command, "-", stdin=json.dumps(obj),
                         monkeypatch=monkeypatch)
    assert_one_error_line(code, out, err)
    assert message in err


def test_short_lagrangian_exits_2(capsys, monkeypatch):
    # rows one column short of the symbol coordinates: a datum message, not
    # numpy's from the isotropy product
    _, out, _ = run(capsys, "gen", "global-symplectic", "--l", "3")
    obj = json.loads(out)
    assert obj["lagrangian"]
    obj["lagrangian"] = [row[:-1] for row in obj["lagrangian"]]
    for command in ("tor", "check"):
        code, out, err = run(capsys, command, "-", stdin=json.dumps(obj),
                             monkeypatch=monkeypatch)
        assert_one_error_line(code, out, err)
        assert "declared Lagrangian rows must have" in err and "matmul" not in err


@pytest.mark.parametrize("argv,message", [
    (["annihilator", "--c-places", "0"], "c on at least one place"),
    (["annihilator", "--outside=-1,0"], "non-negative"),
    (["global-general", "--outside=-1,0"], "non-negative"),
    (["global-general", "--outside=0,-1"], "non-negative"),
    (["global-symplectic", "--l", "3", "--outside=1"], "expected 2 outside place counts"),
    (["global-general", "--outside=1"], "expected 2 outside place counts"),
    (["annihilator", "--outside=1,1,1"], "expected 2 outside place counts"),
    (["noroot", "--l", "3", "--outside=2,7"], "expected 1 outside place count (r)"),
], ids=["annihilator-no-c", "annihilator-negative", "general-negative-ra",
        "general-negative-rb", "symplectic-arity", "general-arity", "annihilator-arity",
        "noroot-arity"])
def test_gen_rejects_bad_counts(capsys, argv, message):
    defaults = {"annihilator": ["--s-places", "3"]}.get(argv[0], [])
    code, out, err = run(capsys, "gen", *argv, *defaults)
    assert_one_error_line(code, out, err)
    assert message in err


def test_noroot_takes_one_outside_count(capsys):
    base = ["gen", "noroot", "--l", "3", "--s-places", "2"]
    one = run(capsys, *base, "--outside", "2")
    assert one[0] == EXIT_OK
    assert run(capsys, *base)[1] == run(capsys, *base, "--outside", "1")[1]
    code, out, err = run(capsys, *base, "--outside", "2,7")
    assert_one_error_line(code, out, err)
    assert "expected 1 outside place count (r)" in err


def general_datum(capsys):
    _, out, _ = run(capsys, "gen", "global-general", "--l", "2", "--s-places", "2",
                    "--real-places", "1", "--seed", "3")
    return out


def drop_generators(obj):
    obj.update(generators=[], lagrangian=None, minus1_coeffs=None)


def zero_real_signs(obj):
    obj.update(lagrangian=None, minus1_coeffs=None, reciprocity=False)
    real = [i for i, sp in enumerate(obj["s_places"]) if sp["kind"] == "real"]
    for g in obj["generators"]:
        for i in real:
            g["images"][i] = [0]


# A_3 is one F_2 per real place; generators whose signs miss one leave it
# outside A_1 A_2, and the datum is an input error, not a table or a crash
@pytest.mark.parametrize("damage", [drop_generators, zero_real_signs],
                         ids=["no-generators", "zero-real-signs"])
@pytest.mark.parametrize("command", ["tor", "check"])
def test_missed_real_place_exits_2(capsys, monkeypatch, command, damage):
    obj = json.loads(general_datum(capsys))
    damage(obj)
    code, out, err = run(capsys, command, "-", stdin=json.dumps(obj),
                         monkeypatch=monkeypatch)
    assert_one_error_line(code, out, err)
    assert "A_1 A_2 spans 0 of the 1 dimensions of A_3" in err


@pytest.mark.parametrize("command", ["tor", "check"])
def test_long_minus1_coeffs_exits_2(capsys, monkeypatch, command):
    # an extra coefficient is an error, not silently dropped
    obj = json.loads(general_datum(capsys))
    n = len(obj["generators"])
    obj["minus1_coeffs"].append(1)
    code, out, err = run(capsys, command, "-", stdin=json.dumps(obj),
                         monkeypatch=monkeypatch)
    assert_one_error_line(code, out, err)
    assert f"minus1_coeffs must have {n} entries" in err and f"({n + 1},)" in err


def test_frob_beyond_int64_keeps_output(capsys, monkeypatch):
    # frob is reduced mod l before it becomes int64: the output is unchanged
    text = general_datum(capsys)
    want = run(capsys, "check", "-", stdin=text, monkeypatch=monkeypatch)
    assert want[0] == EXIT_OK
    obj = json.loads(text)
    frob = next(g["frob"] for g in obj["generators"] if any(g["frob"].values()))
    t = next(t for t, v in frob.items() if v)
    frob[t] += 2 * 10 ** 30
    assert run(capsys, "check", "-", stdin=json.dumps(obj), monkeypatch=monkeypatch) == want


@pytest.mark.parametrize("command", ["tor", "check"])
def test_unflagged_real_place_exits_2(capsys, monkeypatch, command):
    # at l = 2 a real place always carries a symbol coordinate: the datum is
    # rejected by name, before the algebra looks for the place's coordinate
    obj = json.loads(general_datum(capsys))
    real = next(sp for sp in obj["s_places"] if sp["kind"] == "real")
    real["flagged"] = False
    obj["reciprocity"] = False
    code, out, err = run(capsys, command, "-", stdin=json.dumps(obj),
                         monkeypatch=monkeypatch)
    assert_one_error_line(code, out, err)
    assert f"place {real['label']}: a real place" in err and "must be flagged" in err


@pytest.mark.parametrize("command", ["tor", "check"])
def test_asymmetric_pairing_exits_2(capsys, monkeypatch, command):
    # at l = 2 without sqrt(-1) the algebra is commutative: a pairing that is
    # not symmetric is refused by name, not read as a non-commutative object
    obj = json.loads(general_datum(capsys))
    place = obj["s_places"][0]
    place["gram"] = [[0, 0, 1], [0, 1, 0], [0, 0, 0]]
    obj["reciprocity"] = False
    code, out, err = run(capsys, command, "-", stdin=json.dumps(obj),
                         monkeypatch=monkeypatch)
    assert_one_error_line(code, out, err)
    assert f"place {place['label']}: pairing must be symmetric" in err


@pytest.mark.parametrize("command", ["tor", "check"])
def test_zero_real_gram_exits_2(capsys, monkeypatch, command):
    # a real place whose Gram matrix is 0 gives every monomial of degree >= 3
    # the value 0 there: A_3 misses the place, as with zero signs
    obj = json.loads(general_datum(capsys))
    obj.update(lagrangian=None, minus1_coeffs=None, reciprocity=False)
    next(sp for sp in obj["s_places"] if sp["kind"] == "real")["gram"] = [[0]]
    code, out, err = run(capsys, command, "-", stdin=json.dumps(obj),
                         monkeypatch=monkeypatch)
    assert_one_error_line(code, out, err)
    assert "A_1 A_2 spans 0 of the 1 dimensions of A_3" in err


@pytest.mark.parametrize("mono,message", [
    ("x0*z", "unknown generator 'z'"),
    ("x0^-1*x1^3", "exponent -1 of x0 in 'x0^-1*x1^3' is not positive"),
    ("x0^2^3", "factor 'x0^2^3' of 'x0^2^3' is not a generator"),
    ("x0^a", "factor 'x0^a' of 'x0^a' is not a generator"),
    ("x0^", "factor 'x0^' of 'x0^' is not a generator"),
    ("x0**x1", "factor '' of 'x0**x1' is not a generator"),
    ("*x1", "factor '' of '*x1' is not a generator"),
], ids=["unknown-generator", "negative-exponent", "two-carets", "letter-exponent",
        "empty-exponent", "double-star", "leading-star"])
@pytest.mark.parametrize("command", ["tor", "check"])
def test_relation_term_errors_name_the_term(capsys, monkeypatch, command, mono, message):
    obj = exterior2_presentation()
    obj["relations"] = [[{"mono": mono, "coef": 1}]]
    code, out, err = run(capsys, command, "-", stdin=json.dumps(obj),
                         monkeypatch=monkeypatch)
    assert_one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize("name", ["", "1", "x^1", "x*y", " x", "x "],
                         ids=["empty", "one", "caret", "star", "leading-space", "trailing-space"])
@pytest.mark.parametrize("command", ["tor", "check"])
def test_unreadable_generator_names_exit_2(capsys, monkeypatch, command, name):
    # with generators ["x^1", "x"], "x^1*x" used to parse as x^2 and give the
    # table of the wrong relation; a relation term could never name such a
    # generator, so the name itself is refused
    obj = {"l": 3, "mode": "comm", "generators": [name, "x"],
           "relations": [[{"mono": "x*x", "coef": 1}]]}
    code, out, err = run(capsys, command, "-", "--max-j", "2", stdin=json.dumps(obj),
                         monkeypatch=monkeypatch)
    assert_one_error_line(code, out, err)
    assert f"generator name {name!r}" in err


def test_one_parser_keeps_calls_apart(capsys, tmp_path):
    # the parser is built once per process: gen --seed 5, then check, then
    # gen and tor with their defaults, print in this process what each
    # prints in a fresh one, so no parsed value leaks into a later call
    assert cli.build_parser() is cli.build_parser()
    path = str(tmp_path / "datum.json")
    calls = [["gen", "global-symplectic", "--l", "3", "--seed", "5"], ["check", path],
             ["gen", "global-symplectic", "--l", "3"], ["tor", path]]
    here = [run(capsys, *calls[0])[:2]]
    (tmp_path / "datum.json").write_text(here[0][1])
    here += [run(capsys, *argv)[:2] for argv in calls[1:]]
    fresh = [run_capped("-m", "koszulity", *argv)[:2] for argv in calls]
    assert here == fresh
    assert here[0][1] != here[2][1]


def gen_file(capsys, tmp_path, dim: int) -> str:
    code, out, _ = run(capsys, "gen", "local", "--case", "symplectic", "--l", "3",
                       "--dim", str(dim))
    assert code == EXIT_OK
    path = tmp_path / f"symplectic{dim}.json"
    path.write_text(out)
    return str(path)


def test_check_symplectic_dim_20_is_small(capsys, tmp_path):
    # the resolution's maps used to be dense: about 1 GB here
    code, out, err, peak_mb = run_capped("-m", "koszulity", "check",
                                         gen_file(capsys, tmp_path, 20))
    assert code == EXIT_OK, err[-400:]
    assert out.endswith("verdict: koszul\n")
    assert peak_mb < 200


def test_tor_symplectic_dim_30_fits_in_2_gb(capsys, tmp_path):
    # a dense map here would take 5.41 GiB
    code, out, err, _ = run_capped("-m", "koszulity", "tor", "--max-i", "4", "--max-j", "4",
                                   "--format", "json", gen_file(capsys, tmp_path, 30))
    assert code == EXIT_OK, err[-400:]
    assert json.loads(out)["dims"][4][4] == 807301
