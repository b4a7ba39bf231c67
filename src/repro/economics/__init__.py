"""Economics — Eq. 7–10 settled over whole populations.

:mod:`repro.economics.batch` folds the scalar closed forms of
:mod:`repro.core.incentives` over detector and provider populations:
detector incentives and costs, provider incentives and punishments.
"""

from __future__ import annotations

from repro.economics.batch import crosscheck_detectors, crosscheck_providers

__all__ = ["crosscheck_detectors", "crosscheck_providers"]
