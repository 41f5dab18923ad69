"""Feature extraction from fetched pages (§4).

After each round of scanning, WhoWas extracts ten features per
successfully fetched page and inserts them into the database:

1. back-end technology ("x-powered-by" response header),
2. page description (``<meta name="description">``),
3. the sorted, '#'-joined string of all response-header names,
4. length of the returned HTML,
5. the ``<title>`` string,
6. the web template (``<meta name="generator">``: Joomla!, WordPress…),
7. the server type ("Server" response header),
8. the keywords meta tag,
9. any Google Analytics ID found in the HTML,
10. a 96-bit simhash over the HTML.

Missing entries are recorded as ``"unknown"``.
"""

from __future__ import annotations

import hashlib
import re
from collections import OrderedDict
from typing import Iterator, Mapping

from .records import UNKNOWN, FetchResult, PageFeatures
from .simhash import simhash as compute_simhash

__all__ = ["FeatureExtractor", "extract_links", "extract_internal_links",
           "extract_domains", "GA_ID_RE"]

_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title>", re.IGNORECASE | re.DOTALL)

# Meta tags are matched in two steps — find the tag, then pull the name
# and content attributes independently — because real-world pages write
# the attributes in either order (`content=` before `name=` is common)
# and a single ordered regex silently drops those.
_META_TAG_RE = re.compile(r"<meta\s[^>]*>", re.IGNORECASE)
_META_NAME_RE = re.compile(
    r"""\bname\s*=\s*(?:"(?P<dq>[^"]*)"|'(?P<sq>[^']*)'|(?P<bare>[^\s"'>]+))""",
    re.IGNORECASE,
)
_META_CONTENT_RE = re.compile(
    r"""\bcontent\s*=\s*(?:"(?P<dq>[^"]*)"|'(?P<sq>[^']*)'|(?P<bare>[^\s"'>]+))""",
    re.IGNORECASE,
)

_META_NAMES = ("description", "keywords", "generator")


def _attr_value(match: re.Match) -> str:
    for group in ("dq", "sq", "bare"):
        value = match.group(group)
        if value is not None:
            return value
    return ""  # pragma: no cover — one alternative always matched


def _iter_meta(body: str) -> Iterator[tuple[str, str]]:
    """Yield (name, content) for every interesting ``<meta>`` tag,
    regardless of attribute order or quoting style."""
    for tag in _META_TAG_RE.finditer(body):
        text = tag.group(0)
        name_match = _META_NAME_RE.search(text)
        if name_match is None:
            continue
        name = _attr_value(name_match).lower()
        if name not in _META_NAMES:
            continue
        content_match = _META_CONTENT_RE.search(text)
        if content_match is None:
            continue
        yield name, _attr_value(content_match)

#: Google Analytics account IDs: UA-<account>-<profile> (§8.3).
GA_ID_RE = re.compile(r"\bUA-(\d{4,10})-(\d{1,4})\b")

_LINK_RE = re.compile(r"""<a\s+[^>]*href=["']([^"'#]+)["']""", re.IGNORECASE)

_WHITESPACE_RE = re.compile(r"\s+")


def _clean(text: str) -> str:
    return _WHITESPACE_RE.sub(" ", text).strip()


def extract_links(html: str) -> list[str]:
    """All absolute http(s) URLs linked from the page (used by the
    Safe Browsing analysis, which queries every extracted URL)."""
    links = []
    for match in _LINK_RE.finditer(html):
        url = match.group(1).strip()
        if url.startswith(("http://", "https://")):
            links.append(url)
    return links


_DOMAIN_RE = re.compile(
    r"\b((?:[a-z0-9-]+\.)+(?:com|org|net|info|biz|io|co|cn|ru))\b",
    re.IGNORECASE,
)


def extract_domains(html: str) -> list[str]:
    """Candidate domain names appearing anywhere in the page, in order
    without duplicates.  Virtual-host 404 pages often leak the intended
    site's domain (§4's second limitation notes WhoWas can sometimes
    recover ownership this way); active DNS then confirms it."""
    seen: list[str] = []
    for match in _DOMAIN_RE.finditer(html):
        domain = match.group(1).lower()
        if domain not in seen:
            seen.append(domain)
    return seen


def extract_internal_links(html: str) -> list[str]:
    """Same-host paths linked from the page ("/about"), in document
    order without duplicates — what the deep crawler follows."""
    seen: list[str] = []
    for match in _LINK_RE.finditer(html):
        url = match.group(1).strip()
        if url.startswith("/") and not url.startswith("//") and url not in seen:
            seen.append(url)
    return seen


class FeatureExtractor:
    """Computes :class:`PageFeatures` for fetched pages.

    Simhash is the costliest step of extraction (tokenize, shingle, hash
    and vote), so fingerprints are memoised by body identity — rounds
    overwhelmingly refetch unchanged pages (the paper's churn is ~3% per
    round).  The memo is a bounded LRU keyed by a real content digest: a
    51-round campaign must not leak memory, and Python's ``hash()``
    collides too easily to key a correctness-critical cache.
    """

    def __init__(self, *, memoize: bool = True, max_cache_entries: int = 4096):
        if max_cache_entries <= 0:
            raise ValueError("max_cache_entries must be positive")
        self._memoize = memoize
        self._max_cache_entries = max_cache_entries
        self._simhash_cache: OrderedDict[bytes, int] = OrderedDict()

    def extract(self, fetch: FetchResult) -> PageFeatures:
        """Features for one fetch; empty/non-text bodies yield defaults."""
        headers = fetch.headers
        body = fetch.body or ""
        title = UNKNOWN
        description = UNKNOWN
        keywords = UNKNOWN
        template = UNKNOWN
        analytics_id = UNKNOWN
        if body:
            match = _TITLE_RE.search(body)
            if match:
                title = _clean(match.group(1)) or UNKNOWN
            for name, raw_content in _iter_meta(body):
                content = _clean(raw_content)
                if not content:
                    continue
                if name == "description":
                    description = content
                elif name == "keywords":
                    keywords = content
                elif name == "generator":
                    template = content
            ga_match = GA_ID_RE.search(body)
            if ga_match:
                analytics_id = ga_match.group(0)
        return PageFeatures(
            powered_by=self._header(headers, "x-powered-by"),
            description=description,
            header_string=self._header_string(headers),
            html_length=len(body),
            title=title,
            template=template,
            server=self._header(headers, "server"),
            keywords=keywords,
            analytics_id=analytics_id,
            simhash=self._simhash(body),
        )

    def _simhash(self, body: str) -> int:
        if not body:
            return 0
        if not self._memoize:
            return compute_simhash(body)
        # surrogatepass keeps the digest total over any str, including
        # lone surrogates hostile bodies can smuggle through decoding.
        key = hashlib.blake2b(
            body.encode("utf-8", "surrogatepass"), digest_size=16
        ).digest()
        cached = self._simhash_cache.get(key)
        if cached is not None:
            self._simhash_cache.move_to_end(key)
            return cached
        value = compute_simhash(body)
        self._simhash_cache[key] = value
        if len(self._simhash_cache) > self._max_cache_entries:
            self._simhash_cache.popitem(last=False)
        return value

    @staticmethod
    def _header(headers: Mapping[str, str], name: str) -> str:
        for key, value in headers.items():
            if key.lower() == name:
                return value or UNKNOWN
        return UNKNOWN

    @staticmethod
    def _header_string(headers: Mapping[str, str]) -> str:
        """Feature (3): all header field names, sorted, '#'-separated."""
        if not headers:
            return UNKNOWN
        return "#".join(sorted(key.lower() for key in headers))
