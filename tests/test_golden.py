"""Golden digests of the campaign outputs.

Each command below runs through main() in process, and its stdout is
compared with SHA-256 digests of the output last known to be right. This
pins the text itself: formatting, order and the set of cases a grid
selects, which the closed-form-against-oracle check cannot see as long as
both sides agree.

Verify output is hashed per family token, so a failure names the family.
"summary" covers the notes and the totals (in --json, everything but the
cases), and "order" lists the families in output order, which with the
per-family digests fixes the whole text. The micros_* timings are deleted
from --json output before hashing, after a check that the output is what
json.dumps writes. A table is hashed whole.

A change that alters one of these outputs on purpose updates its digests
here and says which output changed and why. To print the digests of the
current tree:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import shlex
from itertools import groupby
from operator import itemgetter

import pytest

from trigsum.cli import main

_TWENTY_FAMILIES = (
    "C,S,scaled,coprime,gcd,quoniam,merca-half,merca-shifted,barbero,alternating,"
    "shifted-cos,shifted-sin,weight3-cos,weight3-sin,weight-half-pi,weight-pi3,"
    "ell5-product,ell5-alt-product,ell5-cos2,ell5-cos4"
)
_FIVE_ERRATA = "barbero-naive,alt-cos-middle,alt-sin-middle,cot-all-positive,byrne-smith-printed"

COMMANDS = {
    "verify": "verify",
    "verify-json": "verify --json",
    "errata": "verify --expect-known-errata",
    "five-errata-json": f"verify --family {_FIVE_ERRATA} --expect-known-errata --json",
    "twenty-families": f"verify --m-min 200 --m-max 202 --n-max 24 --family {_TWENTY_FAMILIES}",
    "sigma": "table --kind sigma --n 3 --k-max 300",
    "sigma-minus-json": "table --kind sigma-minus --n 7 --k-max 300 --json",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _grouped(pairs: list[tuple[str, str]]) -> dict:
    """One digest per key over its texts, in order, and the keys in order of
    their runs."""
    texts: dict[str, list[str]] = {}
    for key, text in pairs:
        texts.setdefault(key, []).append(text)
    digests = {key: _sha("\n".join(parts)) for key, parts in texts.items()}
    digests["order"] = tuple(key for key, _ in groupby(pairs, key=itemgetter(0)))
    return digests


def _family_of_line(line: str) -> str:
    return "summary" if line.startswith(("note: ", "total=")) else line.split()[0]


def digests(argv: list[str], out: str) -> dict:
    """The digests of one command's stdout."""
    if argv[0] == "table":
        return {"table": _sha(out)}
    if "--json" not in argv:
        return _grouped([(_family_of_line(line), line) for line in out.splitlines(keepends=True)])
    report = json.loads(out)
    assert out == json.dumps(report) + "\n"
    for case in report["cases"]:
        del case["micros_closed"], case["micros_oracle"]
    cases = [(case["spec"]["family"], json.dumps(case)) for case in report.pop("cases")]
    return {**_grouped(cases), "summary": _sha(json.dumps(report))}


GOLDEN = {
    "verify": {
        "C": "ead4ce82891840cfdb6b454aa23facc69bf6181df770cc13d5513de10c7a0b60",
        "S": "2b968e57bff1a2a62649ebd79c5180f7bd546080f309f02b4e73a3a33aa0e687",
        "alternating": "ffbfe44d7d9883fb5a58ee74a052a26d9b5d4c7acb4af4a9ccd1c97630d9fe18",
        "barbero": "acc91fb1306fdde96d39c60afb8b0969961b8cdea16e9f7fd5d54a8cfdd2086c",
        "byrne-smith": "c56000706e9363dd49ace4dff381f4aa3b7ec5b5f06ee6f91da27b287cfa14e9",
        "coprime": "9a613c705ef015b87e2b9446549d0e7e33796815f15308facb679040db0762cc",
        "cot": "ea1f20e68c85c4a2520a8f773912f83e1336581f172e12a5fb1427a3e93c6ccb",
        "ell5-alt-product": "bdaebef41b34cc2433475097dd00ce2393b25948529eddc9a85b2ec489491d00",
        "ell5-cos2": "7cbda0b3d2f5a6f9f66352d897e447f1a27190a2d9347e4bbe6be35e95c99783",
        "ell5-cos4": "b7ccc22baae96e42ddf186f9a69b7295a119f8b63eede3737c344936a5506c4d",
        "ell5-product": "e40cfb379d13baa6b86c9ba1b92248815df6a22509a80b962016c264f2a386a2",
        "gcd": "4bb037044ae6a0d4f8fd066de5bd3d568f7aa2f08b1bfd3ec2c5e9e3883a2759",
        "merca-half": "52e6949f419e4277a3646d279a5fab9cec4ee466ae59f98f3ac2513865e35663",
        "merca-shifted": "c4490ea4988583aef2967ecf5685dcd9291b3e81b254a7f4705d897a55e0e975",
        "quoniam": "79a2f4ff521c370785100e583ee83f34c9b0fc635225e7d7cf06b44411d680d2",
        "scaled": "a1f7fcd9e6ff294ea7c64cbaccec6e881d5f34b38c350f68c8a70045426a9ca2",
        "shifted-cos": "f446f5cb690dff9c768d1c122f162b356e94ecd2d9511bc8c72cf69f0a8003ec",
        "shifted-sin": "61689352604460ad86d83bd9e1e37dca72d0f7c6c97c44f94e7974cabd0ce27f",
        "weight-half-pi": "52a18c893b24629a1256e9b84885202b918b30728128ae707b57daf15247d6ba",
        "weight-pi3": "45493924d0e6fceb8044b0c7a0c449f4ee56e61fb7d46f0b3959962a1e66ae09",
        "weight3-cos": "15bb130661bf0a41925166e2d172c12cd81aaaab0cc9066daa589ee92542c2c2",
        "weight3-sin": "78d0e13f811db7e60e587ad6e9614e1a6365ade160c369ae9e4489939e218e73",
        "summary": "e4f478f5555712922c9454656dbf28f51df1a208e1e5427dead05f4eef688610",
        "order": (
            "C", "S", "alternating", "barbero", "byrne-smith", "coprime", "cot",
            "ell5-alt-product", "ell5-cos2", "ell5-cos4", "ell5-product", "gcd",
            "merca-half", "merca-shifted", "quoniam", "scaled", "shifted-cos",
            "shifted-sin", "weight-half-pi", "weight-pi3", "weight3-cos", "weight3-sin",
            "summary",
        ),
    },
    "verify-json": {
        "C": "88d876ba017dd96017707e9be437cacf1ff10121b7663508c51d64db81aa01ee",
        "S": "338b28962fc1ed7a4cc3750a587ff4d0edcd91cb3be4e05001dcd2a1a377f42e",
        "alternating": "66b405e9edd66dd760dd672776bfea76efa6032b1537ba5bc6b1536ef97471df",
        "barbero": "f4f7b18a909508f768621730bb1934f06a6b3834c7d370d79ea552f39c6f2fd6",
        "byrne-smith": "68e91d19c0b94246ebb8036d2106a9a4e5780e7792752599b2a6c9b245167b00",
        "coprime": "1b83fef7e637feff7dd3e458ff0ca274235a2bee1d60e9cb8523444009159119",
        "cot": "85edafa886b5436302a1c6ab6129262d126c9ddc65ca65d5c412f5eb5da94b60",
        "ell5-alt-product": "1e12f53b87a48437355b9005c9bcf2506ce5f5be2adce344690ea6ec25d70f21",
        "ell5-cos2": "1a28948962620615ea9650aa95d8c8e6937666e653aa20461cbbfa4a5abae157",
        "ell5-cos4": "055536dbead9dee49d701aae27e7573e16d805010c2f9cd33e18726c530329f1",
        "ell5-product": "bcfc30bb0a41a73d485ca4671f78092a9b78b8f216a9b86849ba66798ea3efbb",
        "gcd": "dc720b6cc12f33118ec54c2f84af77c29f09aa8fc333164a473c5b71c2a4a2b1",
        "merca-half": "62cab5e241dcace61f7f0a5b58c61b54ae2eaa2ff1059b4b8ca24dabcd591de4",
        "merca-shifted": "a8fa812ddff5d6d71178a1a91fe78054141efba3bf19b35830f551124d23e77c",
        "quoniam": "4bf3ce38f9bd76a5a32af67bb43abdedf237eaa5fe199c31039dd515c6b923ad",
        "scaled": "835fc1c62320f1d35918a5690edca12666dfc3c42a4f90aaeaa1c961425bbe46",
        "shifted-cos": "b5edc0b831b2c8267c76c788cb6b2fbb4e66298e301313666ddc410f194559f0",
        "shifted-sin": "740616f9806f090e2d8d18d2dca1c3a66bbabacc9cda529b695f6e1ba58adc5b",
        "weight-half-pi": "bae883540d9f0906a21946740027515e4c70eb39701b6fe92a7a679ed3a0685f",
        "weight-pi3": "21101076909c146a09b76d726584429371285d91cedc343adca21aeb433ac89a",
        "weight3-cos": "136089e6d1c25481a9316d229dab021352a588946f03a10744a17c562ae3f19a",
        "weight3-sin": "791c277f67dd1d6965be53f431d07dc4d1c1df67613951b7f3ee75f6ab563c6b",
        "order": (
            "C", "S", "alternating", "barbero", "byrne-smith", "coprime", "cot",
            "ell5-alt-product", "ell5-cos2", "ell5-cos4", "ell5-product", "gcd",
            "merca-half", "merca-shifted", "quoniam", "scaled", "shifted-cos",
            "shifted-sin", "weight-half-pi", "weight-pi3", "weight3-cos", "weight3-sin",
        ),
        "summary": "632c01dd8b954e0fa6a58a842d533f58ff162c4bd6556de4635bc90e97920909",
    },
    "errata": {
        "C": "ead4ce82891840cfdb6b454aa23facc69bf6181df770cc13d5513de10c7a0b60",
        "S": "2b968e57bff1a2a62649ebd79c5180f7bd546080f309f02b4e73a3a33aa0e687",
        "alternating": "ffbfe44d7d9883fb5a58ee74a052a26d9b5d4c7acb4af4a9ccd1c97630d9fe18",
        "barbero": "acc91fb1306fdde96d39c60afb8b0969961b8cdea16e9f7fd5d54a8cfdd2086c",
        "byrne-smith": "c56000706e9363dd49ace4dff381f4aa3b7ec5b5f06ee6f91da27b287cfa14e9",
        "coprime": "9a613c705ef015b87e2b9446549d0e7e33796815f15308facb679040db0762cc",
        "cot": "ea1f20e68c85c4a2520a8f773912f83e1336581f172e12a5fb1427a3e93c6ccb",
        "ell5-alt-product": "bdaebef41b34cc2433475097dd00ce2393b25948529eddc9a85b2ec489491d00",
        "ell5-cos2": "7cbda0b3d2f5a6f9f66352d897e447f1a27190a2d9347e4bbe6be35e95c99783",
        "ell5-cos4": "b7ccc22baae96e42ddf186f9a69b7295a119f8b63eede3737c344936a5506c4d",
        "ell5-product": "e40cfb379d13baa6b86c9ba1b92248815df6a22509a80b962016c264f2a386a2",
        "gcd": "4bb037044ae6a0d4f8fd066de5bd3d568f7aa2f08b1bfd3ec2c5e9e3883a2759",
        "merca-half": "52e6949f419e4277a3646d279a5fab9cec4ee466ae59f98f3ac2513865e35663",
        "merca-shifted": "c4490ea4988583aef2967ecf5685dcd9291b3e81b254a7f4705d897a55e0e975",
        "quoniam": "79a2f4ff521c370785100e583ee83f34c9b0fc635225e7d7cf06b44411d680d2",
        "scaled": "a1f7fcd9e6ff294ea7c64cbaccec6e881d5f34b38c350f68c8a70045426a9ca2",
        "shifted-cos": "f446f5cb690dff9c768d1c122f162b356e94ecd2d9511bc8c72cf69f0a8003ec",
        "shifted-sin": "61689352604460ad86d83bd9e1e37dca72d0f7c6c97c44f94e7974cabd0ce27f",
        "weight-half-pi": "52a18c893b24629a1256e9b84885202b918b30728128ae707b57daf15247d6ba",
        "weight-pi3": "45493924d0e6fceb8044b0c7a0c449f4ee56e61fb7d46f0b3959962a1e66ae09",
        "weight3-cos": "15bb130661bf0a41925166e2d172c12cd81aaaab0cc9066daa589ee92542c2c2",
        "weight3-sin": "78d0e13f811db7e60e587ad6e9614e1a6365ade160c369ae9e4489939e218e73",
        "barbero-naive": "4f24ce3a3af4ba5a0b85b08cab19b3742e45dbabfa6ea22b4e86a574135a168c",
        "alt-cos-middle": "efe5dd3ff8f33162b23f597e17b48d4092164380ceec5c5e7bf2e15aa97eb2e2",
        "alt-sin-middle": "baf5f13d4094db8f8e590fc8d7069da111d48aa49459cf376fc1843349f1bfc5",
        "cot-all-positive": "771d6187ccaf054d3e5821058b9737d4d37fb3a8aa9eb810e78311f87cddcc71",
        "byrne-smith-printed": "cc2d4acdbba469212f130ed0f5b11827ba6d91a99ba4e16ceebff7439f7e2b45",
        "summary": "0b6f8cecee8a52da6b2dfb1b68a464d608d83071f3fcfc710500523e2d190845",
        "order": (
            "C", "S", "alternating", "barbero", "byrne-smith", "coprime", "cot",
            "ell5-alt-product", "ell5-cos2", "ell5-cos4", "ell5-product", "gcd",
            "merca-half", "merca-shifted", "quoniam", "scaled", "shifted-cos",
            "shifted-sin", "weight-half-pi", "weight-pi3", "weight3-cos", "weight3-sin",
            "barbero-naive", "alt-cos-middle", "alt-sin-middle", "cot-all-positive",
            "byrne-smith-printed", "summary",
        ),
    },
    "five-errata-json": {
        "barbero-naive": "395954d462276700e7d36ce4b41de0b55d59c565f6b3cd6adecd6fcfdf090639",
        "alt-cos-middle": "52168e43f75abb60e63167bfd72284fab2d0363297356a2164e163bb48d738ec",
        "alt-sin-middle": "f93ee70978eed0e65aeef67305c7e52ed9abc448b62babc97002d3ee427a21f2",
        "cot-all-positive": "b8765fa4a5f77d1758c40777b43f93527120c9501ce5c144839568445933a43f",
        "byrne-smith-printed": "630125f1a8e33ad6a3adfdb0f118a5c0015aed3bc770b8563628f24d5b0cff24",
        "order": (
            "barbero-naive", "alt-cos-middle", "alt-sin-middle", "cot-all-positive",
            "byrne-smith-printed",
        ),
        "summary": "dec58a2109c6882d9992eb5c6adc673deaa2a7775adfcd0b8c227142705f21a8",
    },
    "twenty-families": {
        "C": "44aa7491aa633d2cd8f3b279ba2b49e5c0bbfa3b2fa4b549f40247727f2d621e",
        "S": "994c1f8bdf624e43b24069cae81abcdf53cca8f48ff55b21eeea10c7ae710434",
        "alternating": "003214c995e59188d93afc9700b77d0c949cfded79865e61cb94582865b0921f",
        "barbero": "db6db762caedca3761a69034fd58ac4a509109ad5588ac464facf9962822be2b",
        "coprime": "118faf7a26c0948c995ebc31d6ae2f595fd29d6f690a34cf9700c1813a5ed1a5",
        "ell5-alt-product": "eb24922bc3d7d593db8811f35415c6eff37caa3e80db20b12c54e6061da3e79c",
        "ell5-cos2": "e738b57eca07bd8d83cad636dfef43917dd949cea739a4c1c9b40125cb3ce165",
        "ell5-cos4": "dd96af2e139bdc03d866d4fc08eda04ab98d3a5f3319eef0c3fd1a21330526d6",
        "ell5-product": "1e6dbd49ccd52681c4cffacaef51fa56b1d72ca3bb9d18743c0e1b816ef30eb7",
        "gcd": "073a1680647cec4ac84329efd0d71de6b3485ec3ad222eafed64bc982944d990",
        "merca-half": "78605126ed9666c890bcf7ef782bb401339a3745a6b51a340fa700788d74ea5b",
        "merca-shifted": "517bac9285ff3cacc26817e491a2539b8223f5691addf5ab5b8c43dfabd83094",
        "scaled": "e80be0fde01b961800cfa76653d769801b89587eab28acffe946e2b6980e16b5",
        "shifted-cos": "c9b96ccecbe40eb23fa75c9365260e5fe4c310ba7ad61c293665f64c2c07d172",
        "shifted-sin": "b324b683da148f9317a9ac2049444b35664869d4130a60ccc8f67791d8ea9982",
        "weight-half-pi": "37f8c5b18c63589c205d3acf6008eee75953abfb66410a3a68b3412e832cc797",
        "weight-pi3": "be9a4fc3f837e729cc1cdff03b6b493b35526ecfb94118959d6d226ccd3b2f33",
        "weight3-cos": "f4b7d6720c1c204cb82f018a0aa3bab3a1da1981b928bd2ec01570df996197d2",
        "weight3-sin": "41eba6f3b0b5c743c7d4b61f17848c94299178e514a1008ffdb3fe4ea0bf0b04",
        "summary": "502c58b54680b6d636987ba289dca9d07effc61cc10df35163c36b040e79eda5",
        "order": (
            "C", "S", "alternating", "barbero", "coprime", "ell5-alt-product", "ell5-cos2",
            "ell5-cos4", "ell5-product", "gcd", "merca-half", "merca-shifted", "scaled",
            "shifted-cos", "shifted-sin", "weight-half-pi", "weight-pi3", "weight3-cos",
            "weight3-sin", "summary",
        ),
    },
    "sigma": {
        "table": "4ea12d653cac6b2a05eb340a850045822ca0ff770c432d0c5a33a0ce21ccc13e",
    },
    "sigma-minus-json": {
        "table": "dc24ced5d915cd4291f10c6d8326624f6902fa50aecb89111392da5f9f401d7e",
    },
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_campaign_output_matches_its_golden_digests(name, capsys):
    argv = shlex.split(COMMANDS[name])
    assert main(argv) == 0
    assert digests(argv, capsys.readouterr().out) == GOLDEN[name]


if __name__ == "__main__":
    import io
    import textwrap
    from contextlib import redirect_stdout

    print("GOLDEN = {")
    for name, command in COMMANDS.items():
        argv = shlex.split(command)
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        print(f'    "{name}": {{')
        for key, value in digests(argv, out.getvalue()).items():
            if key == "order":
                names = ", ".join(f'"{family}"' for family in value) + ","
                print('        "order": (')
                for line in textwrap.wrap(names, 80, break_on_hyphens=False):
                    print(f"            {line}")
                print("        ),")
            else:
                print(f'        "{key}": "{value}",')
        print("    },")
    print("}")
