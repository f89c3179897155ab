import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CODE_LINES = os.path.join(ROOT, "tools", "code_lines.py")

FIXTURE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    import os  # a trailing comment


    # a comment line
    def f(x):
        """One-line docstring."""
        text = """a string that is
    not a docstring"""
        return (
            x
            + 1
        )


    class C:
        """Docstring
        of three lines.
        """

        value = [
            1,  # comment inside brackets

            2,
        ]
    '''
)
# import; def; text's two lines; return's four lines; class; value's four
# code lines (the blank line inside the brackets holds no token)
FIXTURE_LINES = 1 + 1 + 2 + 4 + 1 + 4


def test_code_lines_of_a_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    proc = subprocess.run(
        [sys.executable, CODE_LINES, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == [
        f"{FIXTURE_LINES:6d}  fixture.py",
        f"{FIXTURE_LINES:6d}  total",
    ]


def test_code_lines_of_the_package():
    proc = subprocess.run(
        [sys.executable, CODE_LINES], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.strip().split("\n")]
    assert rows[-1][1] == "total"
    assert "inference.py" in {name for _, name in rows}
    assert sum(int(count) for count, _ in rows[:-1]) == int(rows[-1][0])
