# lint-corpus-module: repro.bench.widget
"""Known-good twin: arena tables are read, copied, and only copies written."""
from repro.sim.arena import mobile_table, rotate_table


def with_diagonal(n, live, salt, degree):
    table = rotate_table(n, live, salt, degree)
    derived = table.T.copy()  # sanctioned: copy first ...
    derived[live, live] = True  # ... then write the private copy
    return derived


def degree_counts(n, shift):
    table = mobile_table(n, shift)
    counts = table.sum(axis=1)  # reads are fine
    fresh = table | table.T  # operator result allocates a new array
    return counts, fresh
