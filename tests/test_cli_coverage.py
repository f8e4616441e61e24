import textwrap

from cli_coverage import statements

MODULE = textwrap.dedent('''\
    """A module."""
    import math

    LIMIT = 3


    def first(x):
        """Its docstring compiles to no instruction."""
        if (x
                > LIMIT):
            return math.sqrt(x)
        else:
            y = [v * 2
                 for v in range(x)]

        @staticmethod
        def inner(z):
            return z
        return y


    class Holder:
        SIZE = 2

        def method(self):
            try:
                pass
            finally:
                return self.SIZE
    ''')


def test_statements_by_function_and_own_lines(tmp_path):
    # a compound statement counts by its header, a nested function by its decorators
    # and header; docstrings, class bodies and module code hold no statement
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    got = [(owner, first, sorted(own)) for owner, first, own in statements(path)]
    assert got == [
        ("first", 9, [9, 10]),
        ("first", 11, [11]),
        ("first", 13, [13, 14]),
        ("first", 17, [16, 17]),
        ("first.<locals>.inner", 18, [18]),
        ("first", 19, [19]),
        ("Holder.method", 26, [26]),
        ("Holder.method", 27, [27]),
        ("Holder.method", 29, [29]),
    ]
