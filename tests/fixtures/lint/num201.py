"""Fixture: a reassociating reduction inside a kernel module.

Every function of a module that assigns ``_CDEF`` is kernel code, not
only its mirror: here an undecorated helper sums with builtin ``sum``
while the C transcription accumulates in a loop — exactly one NUM201
finding.
"""

import repro.util.compiled as compiled

_ = compiled

FORCE_PYTHON = False

_CDEF = """
double total(long long n, double *values);
"""

_C_SOURCE = """
double total(long long n, double *values) {
    double acc = 0.0;
    for (long long i = 0; i < n; i++) acc += values[i];
    return acc;
}
"""


def _accumulate(values):
    return sum(values)


def _total_mirror(values):
    return _accumulate(values)


def total(values, lib=None, fb=None):
    if lib is not None and not FORCE_PYTHON:
        return lib.total(values.shape[0], fb("double[]", values))
    return _total_mirror(values)
