"""Picklable campaign identity: the recipes every worker rebuilds from.

Public surface:

* :class:`CampaignSpec` / :class:`QuerySpec` — picklable recipes broker
  workers use to rebuild the campaign and query;
* :class:`CacheSpec` — a picklable recipe for a sized
  :class:`~repro.core.search.SearchResultCache`.

The multi-process backend that ships these specs lives in
:mod:`repro.distributed`.
"""

from .spec import CacheSpec, CampaignSpec, QuerySpec

__all__ = ["CacheSpec", "CampaignSpec", "QuerySpec"]
