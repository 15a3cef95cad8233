"""What importing promisekit loads. Each check runs in a fresh interpreter
started without `site`, so nothing imported before promisekit hides what
promisekit itself imports."""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> str:
    done = subprocess.run([sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {SRC!r})\n"
                           + code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_manager_loads_neither_openssl_nor_the_socket_layer():
    out = _run("import promisekit, promisekit.harness\n"
               "print(sorted({'_hashlib', 'socket'} & set(sys.modules)))")
    assert out.split() == ["[]"]


def test_the_digest_falls_back_to_hashlib_where_sha256_is_not_built_in():
    out = _run("sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
               "import hashlib, json\n"
               "from promisekit.catalog import digest_document, sha256\n"
               "doc = {'b': [1, 'x'], 'a': {'\\u00e9': None}}\n"
               "blob = json.dumps(doc, sort_keys=True, separators=(',', ':')).encode('utf-8')\n"
               "print(sha256 is hashlib.sha256, digest_document(doc) == hashlib.sha256(blob).hexdigest())")
    assert out.split() == ["True", "True"]


def test_the_standard_handlers_load_neither_the_driver_nor_the_oracle():
    out = _run("import promisekit, promisekit.harness\n"
               "print(sorted({'promisekit.driver', 'promisekit.oracle', 'random',\n"
               "              'importlib.resources'} & set(sys.modules)))")
    assert out.split() == ["[]"]


def test_the_cli_loads_the_driver_only_to_run_or_fuzz():
    out = _run("import promisekit.cli\n"
               "print(sorted({'promisekit.driver', 'promisekit.oracle'} & set(sys.modules)))")
    assert out.split() == ["[]"]
