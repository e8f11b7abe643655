"""End-to-end command line tests: exit codes, canonical JSON, round trips."""

import io
import json
import time

import pytest

from koszulity import cli
from koszulity.cli import main

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
