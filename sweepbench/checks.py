"""Output checks of the sweep benchmark.

Every job's output is compared byte for byte with a reference stream
that the same build computes serially (``--threads=1``) for the same
spec and seed. Each check returns ``""`` when the job is correct and a
one-line reason otherwise; run.py counts every non-empty reason as one
failed job.
"""

import os


def check_stream(got, reference):
    """Reason why record stream ``got`` differs from ``reference``."""
    if got == reference:
        return ""
    got_lines = got.split(b"\n")
    ref_lines = reference.split(b"\n")
    if len(got_lines) != len(ref_lines):
        return "%d record(s) expected, %d received" % (
            len(ref_lines) - 1, len(got_lines) - 1)
    for index, (a, b) in enumerate(zip(got_lines, ref_lines)):
        if a != b:
            return "record line %d differs from the serial reference" % index
    return "stream differs from the serial reference"


def check_job(returncode, got, reference, job_dir=None):
    """Reason why one front-end job failed: a nonzero exit, a
    missing-points manifest in its shard directory, or output that is
    not byte-identical to the serial reference."""
    if returncode != 0:
        return "exit code %d" % returncode
    if job_dir and os.path.exists(
            os.path.join(job_dir, "missing-points.json")):
        return "missing-points manifest written"
    return check_stream(got, reference)
