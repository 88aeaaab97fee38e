"""The backend names — a leaf with no imports, so argument parsers can
offer ``--backend`` choices without loading numpy.  What each name runs
is documented (and dispatched) in :mod:`repro.backend.runtime`."""

#: Registry order is also the presentation order in `repro bench`.
BACKENDS: tuple[str, ...] = (
    "reference", "source", "source-vec", "source-par",
)
