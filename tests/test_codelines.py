from codelines import code_lines

SNIPPET = '''"""A docstring
over two lines."""

# a comment
total = (1 +
         2)
'''


def test_code_lines_count_only_code():
    # the docstring, the comment and the blank line count for nothing;
    # the expression counts once per line it spans
    assert code_lines(SNIPPET) == 2
