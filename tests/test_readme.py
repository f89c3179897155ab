import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_use_blocks():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_library_use_examples_run():
    # the examples build on each other, so they share one namespace
    blocks = library_use_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
