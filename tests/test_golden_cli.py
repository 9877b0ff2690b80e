"""Golden CLI outputs: the sha256 of standard output for fixed invocations.

Every listed command runs in text and in JSON format through
``soctab.cli.main``; a changed byte of its output fails here.  The inputs
are literals (the m2 fixture's socle, LR, dual LR tableau and Hom-matrix),
so no library routine under test produces them.  Update a hash only for an
intended change of output, and record it in CHANGES.md.
"""

import hashlib
import json

import pytest

from soctab.cli import main

M = "src/soctab/fixtures/{}.json"

INPUTS = {
    "socle": {
        "alpha": [4, 2], "beta": [5, 3, 2], "gamma": [3, 1],
        "grid": [[0, 0, 4], [0, 3, 2], [0, 1], [2], [1]],
    },
    "lr": {
        "alpha": [4, 2], "beta": [5, 3, 2], "gamma": [3, 1],
        "grid": [[0, 0, 1], [0, 1, 2], [0, 2], [3], [4]],
    },
    "duallr": {
        "alpha": [3, 1], "beta": [5, 3, 2], "gamma": [4, 2],
        "grid": [[0, 0, 1], [0, 0, 2], [0, 1], [0], [3]],
    },
    "hom": {
        "L": 5,
        "M": 10,
        "h": [
            [0, 3, 6, 8, 9, 10, 10, 10, 10, 10, 10],
            [None, 2, 5, 8, 9, 10, 10, 10, 10, 10, 10],
            [None, None, 4, 7, 9, 10, 10, 10, 10, 10, 10],
            [None, None, None, 5, 8, 9, 10, 10, 10, 10, 10],
            [None, None, None, None, 6, 8, 9, 10, 10, 10, 10],
            [None, None, None, None, None, 6, 8, 9, 10, 10, 10],
        ],
    },
}


def _cases():
    cases = {}
    for shape in ("42/532/31", "42/642/42"):
        for kind in ("socle", "lr"):
            cases[f"enum {shape} {kind}"] = ["enum", "--shape", shape, "--kind", kind]
        cases[f"lr-coeff {shape}"] = ["lr-coeff", "--shape", shape]
    for m in ("m1", "m2", "m3"):
        for p in ("2", "3"):
            cases[f"analyze {m} p{p}"] = ["analyze", M.format(m), "--prime", p]
    for kind in ("socle", "lr"):
        for p in ("2", "3"):
            cases[f"realize {kind} p{p}"] = ["realize", f"<{kind}>", "--kind", kind, "--prime", p]
    for src, dst in (
        ("socle", "hom"),
        ("socle", "duallr"),
        ("duallr", "hom"),
        ("duallr", "socle"),
        ("hom", "socle"),
        ("hom", "duallr"),
    ):
        cases[f"convert {src}->{dst}"] = ["convert", "--from", src, "--to", dst, f"<{src}>"]
    cases["switch --trace"] = ["switch", "<socle>", "--trace"]
    cases["check counts 9"] = ["check", "--suite", "counts", "--max-beta", "9"]
    cases["check switching 8"] = ["check", "--suite", "switching", "--max-beta", "8", "--seeds", "5"]
    return cases


CASES = _cases()

# sha256 of stdout, keyed by (case, format)
GOLDEN = {
    ("enum 42/532/31 socle", "text"): "d4ec447ad0b131422ba34774b882f172c4b623f21c97739713571070ea2eea1b",
    ("enum 42/532/31 socle", "json"): "eca278e2d08754a2da68f5008ebc3491ff4a9ef041762bbba9c3a53751179dac",
    ("enum 42/532/31 lr", "text"): "7049c04b6ae5151be4c6b791462760022b22d944b548284a03be7526d764d7b6",
    ("enum 42/532/31 lr", "json"): "1781d6f1fef78a78ab52c403589f13117ef02db5270c22b41452293991b8bb02",
    ("lr-coeff 42/532/31", "text"): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ("lr-coeff 42/532/31", "json"): "9eeac76acf7795b80741641db1b160ce23bcd9d0682e3734106ff6201c042b39",
    ("enum 42/642/42 socle", "text"): "a1ecba5853db141cc6cab3631facf088f3c7dbb219e63cdef5c902391efe4dfe",
    ("enum 42/642/42 socle", "json"): "c4ef1dc3d2552fd5b7039e176c47e38297e723d8f56bb20236475ef6ff087926",
    ("enum 42/642/42 lr", "text"): "126eb19f6cdac9013597e0d158c97d41a091a7c04e97f16e67d51a1112787a3e",
    ("enum 42/642/42 lr", "json"): "db92d6e83d775b7bd167fda91525b5df9e04bd0df9b9c93fbaf53c0dd94fafe1",
    ("lr-coeff 42/642/42", "text"): "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    ("lr-coeff 42/642/42", "json"): "1f9bb9ccbada972200f88e44db0208abdc8a77391bae6f9297f3bf0477c7aa36",
    ("analyze m1 p2", "text"): "f48dc36a246ca6a0102dafdb13d71005955ab2705d759e8d7f6f3883ef0dce1f",
    ("analyze m1 p2", "json"): "b84fb4b9c90f66c3c3b558591ba3d79d75543f6fd2a6f067069c589a5297d982",
    ("analyze m1 p3", "text"): "9a38f08d736b45e1dcebaa7efe0bc6f1a8f59aef56b16f0918616eaf4c80e9a0",
    ("analyze m1 p3", "json"): "9920e5dec9c51cdb9214ef828a3f812e913e691a30ea566979e9cd149b9808af",
    ("analyze m2 p2", "text"): "4cde02f5b13f4fb042d6c2b74e839564e9494be28fc48b5df339314b65461f94",
    ("analyze m2 p2", "json"): "50c2cd4ea32e30a0fb8ed29a730f605ec9705dab1bb4eb661b2f41fb17e3ced8",
    ("analyze m2 p3", "text"): "6630d415ab9bbca9813ce49193778c3946b4776d20f416a53e3e288867221a15",
    ("analyze m2 p3", "json"): "c4e7b7ddc954fa7546a2eb7ea660d1b843aefe7c8c73d076e16bdd7f3c89affa",
    ("analyze m3 p2", "text"): "ed4bd7861f8abf9b0576b89cb56fa4563cf5d20c60e6ef71e828ae036bc01b4d",
    ("analyze m3 p2", "json"): "f572c14e6c906c265dd96ed13b5193ba9281e48aeb705974f26abc7ae3e369e1",
    ("analyze m3 p3", "text"): "cad4dc922abef08f829e182d67c26506f8716c6efcb193a1e22febe1654248bc",
    ("analyze m3 p3", "json"): "f9bf6bae8772c2f82a147ae3ed27e6044cdcef38d5f1c18bbaca38c36e333a24",
    ("realize socle p2", "text"): "26287b652866832fc3121f90a79163d00c16f74238346f821dcc538d843410f2",
    ("realize socle p2", "json"): "75486a02828db5db5949c5ec2caf998e5cc51201ae846b5b6ea94a137db5a6bf",
    ("realize socle p3", "text"): "0a1606c69902cb4f70a59ea7869aa168da3a3a8d52d53a279481a8cad4949fdc",
    ("realize socle p3", "json"): "f5dc27c62b167d889271e5333a1d79aeefb844fbabe7afd6c1ffbc0f6b00ff31",
    ("realize lr p2", "text"): "a744f4a0bdbbe8360d5609aa04bebcd318e86402ff58f61116937553ff3f1668",
    ("realize lr p2", "json"): "3caca4ed64968a6ef764d3a5dfee59e60787332d0d505bd83241e22dcd3fe739",
    ("realize lr p3", "text"): "eb7cc1bab65d290cb1d63fe92d7f7167935495d84ff7eb1e4ef1d6b235829414",
    ("realize lr p3", "json"): "93c49c2e784226fc2d06329e5ef9bdd285c71dbf9857c8144c6d20536b48ccfb",
    ("convert socle->hom", "text"): "2b7b27a2113610a4b02eb56984274ff65600764f5d2e22877288e5bb679dab40",
    ("convert socle->hom", "json"): "e65c4ac96133fd3dfbe27fde43f8dfc621541b4dc1b607281286639d1834fdd7",
    ("convert socle->duallr", "text"): "fd5c4264bebddb71f93057f94afb4318c80a681440c22577aa30dc9fdac95857",
    ("convert socle->duallr", "json"): "a3fbaf7ee33ce8d4735adb1033a2410335dfad2f273a67ad99b0a44054dcf413",
    ("convert duallr->hom", "text"): "2b7b27a2113610a4b02eb56984274ff65600764f5d2e22877288e5bb679dab40",
    ("convert duallr->hom", "json"): "e65c4ac96133fd3dfbe27fde43f8dfc621541b4dc1b607281286639d1834fdd7",
    ("convert duallr->socle", "text"): "6061f0b390c42331b4bc797a068a5f02101758f4226aa7ccd556b8657bff16bb",
    ("convert duallr->socle", "json"): "6986bff683c3dad3cf6373154ed52fd2b03fde38b6cf05c184b192156c66e97d",
    ("convert hom->socle", "text"): "6061f0b390c42331b4bc797a068a5f02101758f4226aa7ccd556b8657bff16bb",
    ("convert hom->socle", "json"): "6986bff683c3dad3cf6373154ed52fd2b03fde38b6cf05c184b192156c66e97d",
    ("convert hom->duallr", "text"): "fd5c4264bebddb71f93057f94afb4318c80a681440c22577aa30dc9fdac95857",
    ("convert hom->duallr", "json"): "a3fbaf7ee33ce8d4735adb1033a2410335dfad2f273a67ad99b0a44054dcf413",
    ("switch --trace", "text"): "2d3cc3b7660b70e38591bb28f0b2cdd8c93c23baf63c30411d9652ec7fa5ec4b",
    ("switch --trace", "json"): "3f3e811de49d70bb4c14e09af04f7e61e40373711b893b8982b3550853602ac7",
    ("check counts 9", "text"): "2469aa8e631256e2853ae5f3e9bd62346158c692579b3f4a199b484a24c54663",
    ("check counts 9", "json"): "79400643e43ff56b31f76d6493218c794539ced19f4bfa21552ef431a96e9241",
    ("check switching 8", "text"): "3753a5078da055e7346cd7c752fbb5fb44b16a43ab5b761cc1c062caf6445c16",
    ("check switching 8", "json"): "369991204a789ad259f471ca9e41b6641b60b3c408fdef2f3fd168ad71b2deba",
}


def _run(capsys, tmp_path, argv, fmt):
    files = {}
    for name, data in INPUTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        files[f"<{name}>"] = str(path)
    argv = [files.get(a, a) for a in argv]
    if fmt == "json":
        argv += ["--format", "json"]
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_golden_cli_output(case, fmt, capsys, tmp_path):
    rc, out, err = _run(capsys, tmp_path, CASES[case], fmt)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(case, fmt)]
