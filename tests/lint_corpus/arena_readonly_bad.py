# lint-corpus-module: repro.bench.widget
"""Known-bad: writes through read-only shared arena table views."""
from repro.sim.arena import mobile_table, rotate_table


def patch_diagonal(n, live, salt, degree):
    table = rotate_table(n, live, salt, degree)
    table[0, 0] = True  # subscript write into the shared view
    table[live, live] |= True  # in-place operator through the view
    return table


def scrub(n, shift):
    table = mobile_table(n, shift)
    table.fill(False)  # mutating method on the shared view
    table.flags.writeable = True  # un-freezing the view is a write too
    return table
