"""Golden CLI outputs: exit code, stdout and stderr pinned by sha256 on every fixture.

``verify`` is pinned on the ``certify-ray`` output of every fixture (the
empty output of an infeasible fixture included), on one copy of the
p2_r17 list whose last certificate has two alpha E-values swapped, and on
the ``strict-inclusion`` witness of every fixture that has one (its s is
irrational on p2_r11, p2_r12, enriques and abelian).
``zariski`` is pinned on fixture curve lists with chosen divisors, ``verify``
on each of its outputs and on one moved by L, and ``list_decomposition_check``
by the sha256 of its report's ``repr``.  ``slice`` is pinned on every fixture
and on one input with classes, labels and a plane normal; ``--format text``
of ``analyze``, ``thresholds`` and ``segre-check`` on p2_r12 and k3_generic;
``segre-check`` on one input with pencil and Nagata entries.

A refactor that means to keep the output byte-identical must keep these
digests.  Regenerate an entry only for an output change that is named in
CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from surface_cones import cli, zariski

EXTRA_ARGS = {"analyze": ["--samples", "50"]}

GOLDEN = {
    ("analyze", "abelian"): "be60a5828e82291a33c0c1c6c22416e792867c33d1d061d863996ebc499cc35b",
    ("analyze", "enriques"): "019d77c31b985a0f7999f255979f0c6682ccde81ef44fc9900597ebe6126ba07",
    ("analyze", "k3_generic"): "75cd828e398fa745f43833e835efb004caccfe6407249e612b4d05589e229196",
    ("analyze", "p2_r1"): "eca79cab7d470ddd46cdfda157cd047a9a18910d1de2ea45c78bc9bd1e192463",
    ("analyze", "p2_r9"): "eca79cab7d470ddd46cdfda157cd047a9a18910d1de2ea45c78bc9bd1e192463",
    ("analyze", "p2_r10"): "5251677718cff33b7ba7199d1e69d8e3a4ab445ea31cf58205259de465ecae93",
    ("analyze", "p2_r11"): "1b770bea4bf657a3cd1a7e3ef2f8ce87c2f5b7c0ec723a399abc95fd0e8a2785",
    ("analyze", "p2_r12"): "27286bf3e9b60cbffc913c71e18cb88259f59cc3805de8c12f551f00e1a13ab2",
    ("analyze", "p2_r17"): "e4d99d6858674bb0937933ada30729ed3c6ba4a51190263dfa9491c9aaf5eb53",
    ("thresholds", "abelian"): "9b396c8c2c1ea3193632c390eecd1733d8d6d95594affe81309905b42dafb345",
    ("thresholds", "enriques"): "54565e032b1e2c57c760d7b6961ae2bc54f232eb6ad607d9043c8dd5a9eee5e5",
    ("thresholds", "k3_generic"): "81ecde966cdf50dfce66df505ad3c32a04b0618b324f4f018bf5352a3e29846f",
    ("thresholds", "p2_r1"): "8cf8d43f1d650d8df034ce54458548b8e9379db52ea0be12e4fa874ffb7ea501",
    ("thresholds", "p2_r9"): "eca79cab7d470ddd46cdfda157cd047a9a18910d1de2ea45c78bc9bd1e192463",
    ("thresholds", "p2_r10"): "420cd537ac6dbdd990719d5eeab97aaaa1f4c2595ae14a1b9815fb85f9dcfbcd",
    ("thresholds", "p2_r11"): "c40a24cc2df8b8dc2ef15ebc040f6ff327f06b16e237e562a8448ca376782762",
    ("thresholds", "p2_r12"): "e9d4a5c9ee24889b04326dba5cc6aa740095e2923ebc38e80ce6783f1a2cf50a",
    ("thresholds", "p2_r17"): "214f9814eb2750cc97aacd15348e3e7887a5ab9a24353a2cccfb64d32c08ecbb",
    ("certify-ray", "abelian"): "3bbc02f761cda56f438595733eebed305502a8e3bb8246e00ea470a5607b0bf9",
    ("certify-ray", "enriques"): "7b7060ee43afe9813cc5209294db5e05959a3b2898b7582929677c9f79f56198",
    ("certify-ray", "k3_generic"): "5ba0c4e87e9f63b22df3610e04c640c6ff7435e4ce9634fcf093d11436f7e3c7",
    ("certify-ray", "p2_r1"): "8cf8d43f1d650d8df034ce54458548b8e9379db52ea0be12e4fa874ffb7ea501",
    ("certify-ray", "p2_r9"): "15a6d13cf657e9e8efd3628981c3b0c1baa5cf158f0908e389849785db57cc7b",
    ("certify-ray", "p2_r10"): "a03146a37a7c505a2567dcc70db1179756c15d5c7f228451620a88dd14512d42",
    ("certify-ray", "p2_r11"): "0a52fd2ef79d05646285483ccbc0ff2e0b07d6753d8f808f8bdf1d0e289f3912",
    ("certify-ray", "p2_r12"): "8d2d16569c3b66b0ea0a8e4aea7333afab53115ece33ae8ce08a0586b6b7df60",
    ("certify-ray", "p2_r17"): "b90037cc531e16a1355db0034948ca7009d1e2895cb3f8345676ae5551de84f2",
    ("strict-inclusion", "abelian"): "063e68b6d47faf8bcd22913704ecd10abac75b6673afd7473011017fd14fa4de",
    ("strict-inclusion", "enriques"): "0f9b09708560090e9c44e7b5a1b900dae01b3cb793c55914b7fc420bed9bde37",
    ("strict-inclusion", "k3_generic"): "1cbe69ce7959fd6d75c5ab221824aeab35c912d8b210759734090bb461b5975b",
    ("strict-inclusion", "p2_r1"): "249ea379c467416d2c3460f7ae51e8bd2ac4fb926f542476d8edc50b34a7ae11",
    ("strict-inclusion", "p2_r9"): "d3e3b4a14f5cce33f171052c5e765e7c56c8a036d56413cfe69ca7161b925788",
    ("strict-inclusion", "p2_r10"): "cf06980f3bf17850a820704f2b1e18b232e3f46925b5e43a2e3e2f11011fe7ba",
    ("strict-inclusion", "p2_r11"): "f82813d240215d6d6e61ed2b15c3aea03ed1bb6e062fd0d7e04804fbd32f1e80",
    ("strict-inclusion", "p2_r12"): "8cb87530caab2d7d585564bcb9b4f90e7fed1a41072f79ed3a5dd5b08a6d432f",
    ("strict-inclusion", "p2_r17"): "ab7b41f9433df22badcc83cd002e4f69f83d8dd9f88a0f3e823162ac92f19cb5",
    ("segre-check", "abelian"): "d34719cef5d0f4e1d3f22f337ef0d5c0585b0fdd9bd2cee46d79e09ab5c7ebd2",
    ("segre-check", "enriques"): "81dbf511585436aaab4e6ad8a487de1cfcfd62b119cd82d364972f1b4f0da0cf",
    ("segre-check", "k3_generic"): "6b6d62b916375b9b27bf80fc2735dc085baafac830326e3381ee3ba25c0f0f04",
    ("segre-check", "p2_r1"): "459855c10dbdaf1cf1caba63e088d9dfcdfef537d461a6bc51ecfa12d6f1417c",
    ("segre-check", "p2_r9"): "cbd4a89f357f5a08b3b26694cbf6c580ce41eec5a7b13f40cd8061d14f7e44fe",
    ("segre-check", "p2_r10"): "1c02305a960ef7b214fb6eaaf818e6166a1599c9c320571298c8c4e1418b8fe0",
    ("segre-check", "p2_r11"): "196581ffd757ba99e9298152369a6783abd65a2c71689ecc45d9a93b7f3d7418",
    ("segre-check", "p2_r12"): "ce2d63818ba00a1f70b34817fabc084d7a6fbe94bcbf5c46bf8e12ded8570963",
    ("segre-check", "p2_r17"): "b119c3d48978cb8e1c48b5feaeba8b4e27e159e068116a73801597bbf1bf8074",
    ("slice", "abelian"): "dee4a47008295f70d66a65bcf7199baefdb7ce181615e9c8491c8b713bf09c94",
    ("slice", "enriques"): "dee4a47008295f70d66a65bcf7199baefdb7ce181615e9c8491c8b713bf09c94",
    ("slice", "k3_generic"): "a52e44ae601d06e64176babbf363044db74a1659c8f47f0f69f881357a2c31db",
    ("slice", "p2_r1"): "c162c7dbfd3cad5f8f08a88f5a6a4f678aefd855eef619c158b12a444a5ce29b",
    ("slice", "p2_r9"): "093b1a7927aa0620e5394f48b6f9c2234255a8770c466520fc7a8b49eaff31c5",
    ("slice", "p2_r10"): "093b1a7927aa0620e5394f48b6f9c2234255a8770c466520fc7a8b49eaff31c5",
    ("slice", "p2_r11"): "093b1a7927aa0620e5394f48b6f9c2234255a8770c466520fc7a8b49eaff31c5",
    ("slice", "p2_r12"): "093b1a7927aa0620e5394f48b6f9c2234255a8770c466520fc7a8b49eaff31c5",
    ("slice", "p2_r17"): "093b1a7927aa0620e5394f48b6f9c2234255a8770c466520fc7a8b49eaff31c5",
}

GOLDEN_TEXT = {
    ("analyze", "k3_generic"): "042365ed6471414900190fe88886f7ad726c4a5f7c137dfd0ff6c880f772b313",
    ("analyze", "p2_r12"): "239a0d1a3bacf67e73b8460e06be94169cde280593ee03cf378c4738af958255",
    ("thresholds", "k3_generic"): "eb4d52911d606ea8337f586d51832a10ec51da5bf9ece319470fcd0c4d63467d",
    ("thresholds", "p2_r12"): "2a213d8dccef9c883c1c5b3b59365823c9805c4c0bb953dbdb9fa3ae903f0575",
    ("segre-check", "k3_generic"): "9e156945a90a51e8d41d499e765b52bd6c77ad0e63558510125753f13eb807ee",
    ("segre-check", "p2_r12"): "de0d8fe423b4b930d3f8bcf3f7bf3a9323800d4b5f6264428fade5085adbfa06",
}

# inputs beyond the fixtures: the command and the fields added to a fixture
GOLDEN_INPUTS = {
    "slice classes": ("slice", "p2_r1", {
        "classes": [[1, 0], [0, 1], [1, -1], ["1/2", "-1/3"]],
        "labels": ["L", "E1", "L-E1", "half"],
        "plane_normal": [2, -1],
    }),
    "segre-check entries": ("segre-check", "enriques", {
        "pencils": [{"g": 1, "dim": 0}, {"g": "2", "dim": "1"}, {"g": 0, "dim": 1}],
        "nagata": [{"deg": 3, "mults": [1, 1]}, {"deg": "7/2", "mults": [2, "1/2", 1],
                                                 "variant": "strong"}],
    }),
}

GOLDEN_INPUT_DIGESTS = {
    "segre-check entries": "a991a62d9ec25195ec13c84c8bd3e6615f23356e64c027c8d552002c58dfbfa4",
    "slice classes": "f1c6bb57836b99723170f228da5d9a16f9708a1aac514ab5458fdddb0a8c9773",
}


GOLDEN_VERIFY = {
    "abelian": "0a8bd708ef26706c15a67ac393b62f5d18633d31d13f37540c88a865bdb26921",
    "enriques": "0a8bd708ef26706c15a67ac393b62f5d18633d31d13f37540c88a865bdb26921",
    "k3_generic": "cc62b6c244e15c4c7e2a4d7f50bc15cd66af18bd6c9879aeb2795f8fb66f9c76",
    "p2_r1": "830f337eb620468d9b692664408eaf7f86b4a0fa957f11416ac2529f9b4fa8b5",
    "p2_r9": "b8383097326458494e13d01d5d1499b49ff00b64f6254d3b51afcf95a5090bc6",
    "p2_r10": "b1bea8097b5f9952e45109255e7bb4b6136a4f07fb65d2f929824f5c8e8125b2",
    "p2_r11": "b4b2bda47ec9a070366c9989e18b44babde95b7460b867a4ebac1acbc0a8c615",
    "p2_r12": "cc212eb63776b5b05310e2199097e902759ed967966b4030eecf4978b7c953e8",
    "p2_r17": "77651830326e1b6453048cd046c1b7acb891ccf07dedb5502fa3b1e75b105b44",
    "p2_r17 tampered": "6667af369ba746f6dc8e5140580ed6f4507cdd9f056c33a6e84e37d9acebc269",
}

# verify on the strict-inclusion witness of each fixture where one exists
GOLDEN_STRICT_VERIFY = {
    fixture: "03d5f16735c957f00d5479d03c6c7ca0423feee14d5cabe3bc27a89e81d9e284"
    for fixture in ("abelian", "enriques", "k3_generic", "p2_r11", "p2_r12", "p2_r17")
}


def _digest(code, captured) -> str:
    blob = json.dumps([code, captured.out, captured.err]).encode()
    return hashlib.sha256(blob).hexdigest()


def _swap_last_alpha(text: str) -> str:
    """The list with two E-values of its last alpha swapped where the curve's values differ."""
    doc = json.loads(text)
    cert = doc["certificates"][-1]
    m = len(cert["curve"]["coords"]) - cert["r"]
    coords, alpha = cert["curve"]["coords"], cert["alpha"]
    i = m
    j = next(k for k in range(m, len(coords)) if coords[k] != coords[i])
    alpha[i], alpha[j] = alpha[j], alpha[i]
    return json.dumps(doc)


@pytest.mark.parametrize("command, fixture", sorted(GOLDEN))
def test_golden_output(capsys, command, fixture):
    code = cli.main([command, "--input", f"fixture:{fixture}", *EXTRA_ARGS.get(command, [])])
    assert _digest(code, capsys.readouterr()) == GOLDEN[command, fixture]


@pytest.mark.parametrize("command, fixture", sorted(GOLDEN_TEXT))
def test_golden_text_format(capsys, command, fixture):
    args = [command, "--input", f"fixture:{fixture}", "--format", "text"]
    code = cli.main(args + EXTRA_ARGS.get(command, []))
    assert _digest(code, capsys.readouterr()) == GOLDEN_TEXT[command, fixture]


@pytest.mark.parametrize("case", sorted(GOLDEN_INPUTS))
def test_golden_input(capsys, tmp_path, case):
    command, fixture, fields = GOLDEN_INPUTS[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(dict(cli.load_fixture(fixture), **fields)))
    code = cli.main([command, "--input", str(path)])
    assert _digest(code, capsys.readouterr()) == GOLDEN_INPUT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_VERIFY))
def test_golden_verify(capsys, tmp_path, case):
    fixture, _, tamper = case.partition(" ")
    cli.main(["certify-ray", "--input", f"fixture:{fixture}"])
    text = capsys.readouterr().out
    path = tmp_path / "certs.json"
    path.write_text(_swap_last_alpha(text) if tamper else text)
    code = cli.main(["verify", str(path)])
    assert _digest(code, capsys.readouterr()) == GOLDEN_VERIFY[case]



@pytest.mark.parametrize("fixture", sorted(GOLDEN_STRICT_VERIFY))
def test_golden_strict_verify(capsys, tmp_path, fixture):
    assert cli.main(["strict-inclusion", "--input", f"fixture:{fixture}"]) == 0
    path = tmp_path / "witness.json"
    path.write_text(capsys.readouterr().out)
    code = cli.main(["verify", str(path)])
    assert _digest(code, capsys.readouterr()) == GOLDEN_STRICT_VERIFY[fixture]

# zariski inputs: a bundled fixture's surface and curve list with a divisor
ZARISKI_DIVISORS = {
    "p2_r10": [7] + [-3] * 5 + [0] * 5,  # 7L - 3(E_1 + ... + E_5)
    "p2_r10 incomplete": [4] + [-2] * 5 + [0] * 5,  # needs the unlisted conic: exit 2
    "p2_r17": [5, -3, -3, -1, -1] + [0] * 13,  # support L - E_1 - E_2
    "abelian": [2, 1, 2, 0],  # support E_1
    "enriques": [1, 3, 0, 1],  # support E_2
}

GOLDEN_ZARISKI = {
    "abelian": "d0dba5b92ed469ff90ec336c328e2db4707029c1bb5fdbc2c87b2f12f82e644d",
    "enriques": "fc5b5a4cca86896372c71cbfd033223a0a787c9d203ed959cbb39a96b17bb5c8",
    "p2_r10": "6ef0850e3df32b0834a90f2baf341796f495c060267fd9dd442e86ec01e37144",
    "p2_r10 incomplete": "8a238fac12a4651338771c9bd37d68cce8d88029698e6bce64871224a23fff63",
    "p2_r17": "8c80c6479719931a5d9e9a629723bfeeb10b31fecba6ca006a23b1cc88ec8a66",
}

# verify on each zariski output, and on the p2_r17 one moved by L
GOLDEN_ZARISKI_VERIFY = {
    "abelian": "03d5f16735c957f00d5479d03c6c7ca0423feee14d5cabe3bc27a89e81d9e284",
    "enriques": "03d5f16735c957f00d5479d03c6c7ca0423feee14d5cabe3bc27a89e81d9e284",
    "p2_r10": "03d5f16735c957f00d5479d03c6c7ca0423feee14d5cabe3bc27a89e81d9e284",
    "p2_r10 incomplete": "830f337eb620468d9b692664408eaf7f86b4a0fa957f11416ac2529f9b4fa8b5",
    "p2_r17": "03d5f16735c957f00d5479d03c6c7ca0423feee14d5cabe3bc27a89e81d9e284",
    "p2_r17 moved": "79ec264ee4116c06e1deee3a38f598fc69a8a0a79315a105685b506f3c653d09",
}

# (samples, seed) of list_decomposition_check on a fixture's model and curve list
LIST_CHECK_ARGS = {"p2_r10": (5, 3), "p2_r17": (3, 1)}

GOLDEN_LIST_CHECK = {
    "p2_r10": "190e8ebb2a999b0e1e918b9b506c7c9638b65d321ab4419ad47c6cf638d8673e",
    "p2_r17": "c05624c6c77ba3ca5f08e83c4db3d0a2fb341bda063d567458e31861d484b735",
}


def _zariski(capsys, tmp_path, case):
    fixture = case.partition(" ")[0]
    doc = dict(cli.load_fixture(fixture), divisor=ZARISKI_DIVISORS[case])
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["zariski", "--input", str(path)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("case", sorted(ZARISKI_DIVISORS))
def test_golden_zariski(capsys, tmp_path, case):
    code, captured = _zariski(capsys, tmp_path, case)
    assert _digest(code, captured) == GOLDEN_ZARISKI[case]


def _move_by_line(text: str) -> str:
    """The decomposition with L added to both D and P: the sum holds, P.C_i changes."""
    doc = json.loads(text)
    for key in ("divisor", "P"):
        doc[key][0] = str(Fraction(doc[key][0]) + 1)
    return json.dumps(doc)


@pytest.mark.parametrize("case", sorted(GOLDEN_ZARISKI_VERIFY))
def test_golden_zariski_verify(capsys, tmp_path, case):
    source = case.removesuffix(" moved")
    _, captured = _zariski(capsys, tmp_path, source)
    path = tmp_path / "decomposition.json"
    path.write_text(captured.out if case == source else _move_by_line(captured.out))
    code = cli.main(["verify", str(path)])
    assert _digest(code, capsys.readouterr()) == GOLDEN_ZARISKI_VERIFY[case]


@pytest.mark.parametrize("fixture", sorted(LIST_CHECK_ARGS))
def test_golden_list_decomposition_check(fixture):
    parsed = cli._parse(cli.load_fixture(fixture), ())
    model, curves = parsed.model, parsed.curves
    samples, seed = LIST_CHECK_ARGS[fixture]
    report = zariski.list_decomposition_check(model, curves, samples=samples, seed=seed)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == GOLDEN_LIST_CHECK[fixture]
