"""The two kinds of FPG solve that the oracle tests run side by side: an
unrestarted one, as every budgeted solve, and a restarted one, as the
tight references."""

from tvprox.exact import OracleConfig


def oracle(restart_tol=None, **settings):
    """OracleConfig(**settings) for an unrestarted solve when restart_tol is
    None, else for a restarted one that stops at relative gap restart_tol."""
    if restart_tol is not None:
        settings.update(tol=restart_tol, restart=True)
    return OracleConfig(**settings)
