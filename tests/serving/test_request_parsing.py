"""Request-body validation at both HTTP hops.

Every malformed body must get a 400, never a dropped connection: the
shard front end and the cluster router catch ``TypeError``,
``ValueError`` (``RecordParseError`` included) and ``KeyError`` around
their parsers and map them to 400.  These tests pin both halves: the
parsers raise nothing else on any JSON value, and a number too large
for a float -- which ``json`` reads as infinity -- is answered with a
400 by both hops.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serving.cluster import ClusterHTTPServer
from repro.serving.httpd import (
    DetectionHTTPServer,
    parse_ingest_body,
    parse_score_body,
)

#: The exceptions both ``do_POST`` handlers answer with a 400.
MAPPED_TO_400 = (TypeError, ValueError, KeyError)

#: JSON numbers; ``json`` reads ``1e400`` and ``Infinity`` as infinite
#: floats and ``NaN`` as a NaN.
numbers = st.integers() | st.floats()

json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Comment-row keys the parser reads, so drawn rows get past the
#: missing-field check and reach the value conversions.
ROW_KEYS = (
    "item_id",
    "comment_id",
    "content",
    "nickname",
    "user_exp_value",
    "client",
    "date",
)

comment_rows = (
    st.fixed_dictionaries(
        {key: st.just(1) | st.just("x") | numbers for key in ROW_KEYS}
    )
    | st.dictionaries(st.sampled_from(ROW_KEYS), json_values)
    | json_values
)

ingest_bodies = (
    st.fixed_dictionaries(
        {},
        optional={
            "comments": st.lists(comment_rows, max_size=3) | json_values,
            "sales": st.lists(
                st.lists(numbers, min_size=2, max_size=2)
                | st.lists(json_values, max_size=3)
                | json_values,
                max_size=3,
            )
            | json_values,
        },
    )
    | json_values
)

score_bodies = (
    st.fixed_dictionaries(
        {
            "item_ids": st.lists(numbers | json_values, max_size=4)
            | json_values
        }
    )
    | json_values
)


#: A comment row whose item id JSON reads as infinity.
INFINITE_ROW = dict.fromkeys(ROW_KEYS, 1) | {"item_id": float("inf")}


class TestParsersRaiseOnlyMappedErrors:
    @settings(max_examples=300, deadline=None)
    @example(body={"sales": [[float("inf"), 5]]})
    @example(body={"comments": [INFINITE_ROW]})
    @given(body=ingest_bodies)
    def test_ingest_body(self, body):
        try:
            parse_ingest_body(body)
        except MAPPED_TO_400:
            pass

    @settings(max_examples=300, deadline=None)
    @example(body={"item_ids": [float("-inf")]})
    @given(body=score_bodies)
    def test_score_body(self, body):
        try:
            parse_score_body(body)
        except MAPPED_TO_400:
            pass


@pytest.fixture(params=["shard", "router"])
def post(request):
    """POST a raw body to a live front end; parsing fails before the
    service (shard) or any shard worker (router) is reached, so a bare
    stand-in is enough behind either."""
    if request.param == "shard":
        server = DetectionHTTPServer(("127.0.0.1", 0), service=object())
    else:
        server = ClusterHTTPServer(("127.0.0.1", 0), workers=[])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def send(path: str, raw: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=30
        )
        try:
            conn.request(
                "POST",
                path,
                body=raw.encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    yield send
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestOverflowIs400:
    @pytest.mark.parametrize(
        "path, raw",
        [
            ("/ingest", '{"sales": [[1e400, 5]]}'),
            ("/score", '{"item_ids": [1e400]}'),
            ("/score", '{"item_ids": [-Infinity]}'),
        ],
    )
    def test_answered_not_dropped(self, post, path, raw):
        status, payload = post(path, raw)
        assert status == 400
        assert "error" in payload
