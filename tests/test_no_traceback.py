"""Edge inputs a user can reach end in an exit code of 0-3, never in a
traceback.  Each input runs in its own `python -m pcl.cli` process, as a
user would run it; two run at a time."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pcl
from pcl.families import FAMILIES

GRP = {
    "trivial": "group T { gens: a; rels: a; }",
    "c3": "group C3 { gens: a; rels: a^3; }",
    "c6": "group C6 { gens: a; rels: a^6; }",
    "c10": "group C10 { gens: a; rels: a^10; }",
    "d6": "group D6 { gens: a b; rels: a^6, b^2, (a*b)^2; involutions: b; }",
    "superscript": "group G { gens: a; rels: a^²; }",
    "empty-relator": "group G { gens: a; rels: a^0, a^3; }",
    "duplicate-generator": "group G { gens: a a; rels: a^3; }",
    "undeclared-symbol": "group G { gens: a; rels: b^2; }",
    "undeclared-involution": "group G { gens: a; rels: a^2; involutions: c; }",
    "duplicate-involution": "group G { gens: a; rels: a^2; involutions: a a; }",
    "huge-exponent": "group G { gens: a; rels: a^" + "9" * 5000 + "; }",
    # an element named like a face copy of the augmentation
    "face-copy-name": "group G { gens: f0c0 b; rels: f0c0^4, b^2, "
                      "f0c0*b*f0c0^-1*b^-1; involutions: b; }",
}


# files the test makes in the working directory: a directory, and a UTF-16
# presentation that starts with the byte-order mark ff fe
DIRECTORY = "folder"
UTF16_GRP = "utf16.grp"

# inputs whose exit code is pinned, beyond being one of 0-3
EXIT_CODES = {
    ("build", "--family", "free", "--rank", "5", "--ball", "1"): 0,
    ("build", "--family", "free", "--rank", "26", "--ball", "1"): 2,
    # a file that cannot be read or written is a usage error
    **{(command, path): 2 for command in ("parse", "enumerate", "faces")
       for path in (DIRECTORY, UTF16_GRP)},
    ("build", "a4", "--dot", DIRECTORY): 2,
    ("build", "a4", "--svg", "missing/x.svg"): 2,
    # a group or --gens together with a family is a usage error
    ("faces", "a4", "--family", "z", "--ball", "3"): 2,
    ("faces", "--family", "z", "--ball", "3", "--gens", "a,b"): 2,
    ("build", "a4", "--amalgam", "--ball", "2"): 2,
}

# --gens and --by texts: a word of D6 or "e" resolves (exit 0); any other
# text is a usage error (exit 2)
WORD_TEXTS = {"a^": 2, "a*(b": 2, "zz": 2, "a^" + "9" * 5000: 2,
              "(a*b)^0": 0, "e": 0}


def _word_inputs(grp: dict[str, str]) -> dict[tuple[str, ...], int]:
    """Pinned exit codes of `build --gens` and `contract --by` on D6."""
    out = {}
    for text, code in WORD_TEXTS.items():
        out[("build", grp["d6"], "--gens", f"a,b,{text}")] = code
        out[("contract", grp["d6"], "--by", text)] = code
    return out


def _inputs(grp: dict[str, str]) -> list[list[str]]:
    out = []
    for tag in FAMILIES:
        out.append(["faces", "--family", tag, "--ball", "0"])
        out.append(["build", "--family", tag, "--ball", "0"])
    for name in ("superscript", "empty-relator", "duplicate-generator",
                 "undeclared-symbol", "undeclared-involution",
                 "duplicate-involution", "huge-exponent"):
        out.append(["faces", grp[name]])
    out.append(["augment", grp["face-copy-name"]])
    for steps in ("0", "2,4"):
        out.append(["build", "--family", "z", "--steps", steps, "--ball", "2"])
        out.append(["ends", "--family", "z", "--steps", steps, "-r", "1",
                    "-R", "3"])
    for name in ("trivial", "c3"):
        for command in (["orient"], ["covariant"], ["augment"],
                        ["connectivity"], ["embed", "--search-consistent"]):
            out.append([*command, grp[name]])
    for command in ("augment", "connectivity"):  # K6: not planar, degree 5
        out.append([command, grp["c6"], "--gens", "a,a^2,a^3"])
    out.append(["enumerate", grp["c10"], "--max-cosets", "5"])
    out.extend(EXIT_CODES)
    return out


def write_files(folder: Path) -> dict[str, str]:
    """Write the presentations of ``GRP``, the directory and the UTF-16
    file into folder; return the path of each presentation by name."""
    grp = {}
    for name, text in GRP.items():
        grp[name] = str(folder / f"{name}.grp")
        Path(grp[name]).write_text(text)
    (folder / DIRECTORY).mkdir()
    (folder / UTF16_GRP).write_bytes(
        b"\xff\xfe" + GRP["c3"].encode("utf-16-le"))
    return grp


def test_edge_inputs_end_without_traceback(tmp_path):
    grp = write_files(tmp_path)
    env = dict(os.environ)
    src = str(Path(pcl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))

    def run(argv):
        return argv, subprocess.run(
            [sys.executable, "-m", "pcl.cli", *argv], env=env, cwd=tmp_path,
            capture_output=True, text=True, timeout=120)

    words = _word_inputs(grp)
    pinned = {**EXIT_CODES, **words}
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run, [*_inputs(grp), *words]))
    bad = [f"{' '.join(argv)[:200]}: exit {res.returncode}\n"
           f"{res.stderr[-400:]}"
           for argv, res in results
           if not 0 <= res.returncode <= 3 or "Traceback" in res.stderr
           or pinned.get(tuple(argv), res.returncode) != res.returncode]
    assert not bad, "\n".join(bad)
