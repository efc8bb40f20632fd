"""The README's Library example runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("## Library", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def leading_value(comment: str) -> str:
    """The expression a comment opens with, up to its first top-level ',' or '='."""
    depth = 0
    for i, ch in enumerate(comment):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch in ",=" and depth == 0:
            return comment[:i].strip()
    return comment.strip()


def test_library_example_values():
    namespace: dict = {}
    checked = []
    for line in library_block().splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        expected = leading_value(comment)
        assert eval(code, namespace) == eval(expected, namespace), line
        checked.append(expected)
    assert checked == ["{1: 4, 2: 17, 3: 15}", "17", "(0, 2, 3, 1)", "Fraction(3, 1)", "True"]
