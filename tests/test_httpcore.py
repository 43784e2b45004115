"""The sans-IO protocol core: parsing, encoding, connection state.

Everything here runs without a socket — the point of the layer.  The
two real edges (threaded and async) are thin IO shells over these
objects, so the protocol matrix is proven once, here, and both edges
inherit it.
"""

from __future__ import annotations

import gzip

import pytest

from repro.httpcore import (
    GZIP_MIN_BYTES,
    HttpConnection,
    LAST_CHUNK,
    ProtocolError,
    RequestParser,
    accepts_gzip,
    encode_chunk,
    encode_response,
    encode_simple,
    entry_response,
    etag_matches,
)
from repro.httpcore.delivery import cache_control_for, finalize_delivery
from repro.httpcore.parsing import canonical_header, session_id_from_headers
from repro.caching.page_cache import PageCache, content_etag
from repro.mvc.http import HttpRequest, HttpResponse


# -- request parsing ----------------------------------------------------------


class TestRequestParser:
    def test_simple_get(self):
        parser = RequestParser()
        requests = parser.feed(
            b"GET /public/page1?a=1&b=2 HTTP/1.1\r\n"
            b"Host: x\r\nUser-Agent: test\r\n\r\n"
        )
        assert len(requests) == 1
        request = requests[0]
        assert request.method == "GET"
        assert request.path == "/public/page1"
        assert request.params == {"a": "1", "b": "2"}
        assert request.headers["User-Agent"] == "test"
        assert request.http_version == "HTTP/1.1"

    def test_incremental_feed(self):
        parser = RequestParser()
        head = b"GET /x HTTP/1.1\r\nHost: x\r\n\r\n"
        for byte in head[:-1]:
            assert parser.feed(bytes([byte])) == []
        requests = parser.feed(head[-1:])
        assert [r.path for r in requests] == ["/x"]

    def test_pipelined_requests(self):
        parser = RequestParser()
        requests = parser.feed(
            b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /b HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert [r.path for r in requests] == ["/a", "/b"]

    def test_post_form_body_merges_params(self):
        body = b"name=ceri&tag=a&tag=b"
        parser = RequestParser()
        requests = parser.feed(
            b"POST /do/op1?x=1 HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        request = requests[0]
        assert request.method == "POST"
        assert request.params["x"] == "1"
        assert request.params["name"] == "ceri"
        assert request.params["tag"] == ["a", "b"]

    def test_session_cookie_extracted(self):
        parser = RequestParser()
        (request,) = parser.feed(
            b"GET /x HTTP/1.1\r\nHost: x\r\n"
            b"Cookie: other=1; repro_session=s42\r\n\r\n"
        )
        assert request.session_id == "s42"

    def test_header_names_canonicalized(self):
        parser = RequestParser()
        (request,) = parser.feed(
            b"GET /x HTTP/1.1\r\nhost: x\r\nuSER-aGENT: ua\r\n\r\n"
        )
        assert request.headers["Host"] == "x"
        assert request.headers["User-Agent"] == "ua"
        assert canonical_header("if-none-match") == "If-None-Match"

    @pytest.mark.parametrize("raw", [
        b"NOT-HTTP\r\n\r\n",
        b"GET /x SPDY/9\r\n\r\n",
        b"GET /x HTTP/1.1\r\nBroken Header No Colon\r\n\r\n",
    ])
    def test_malformed_requests_rejected(self, raw):
        with pytest.raises(ProtocolError):
            RequestParser().feed(raw)

    def test_oversized_header_block_rejected(self):
        parser = RequestParser(max_header_bytes=128)
        with pytest.raises(ProtocolError):
            parser.feed(b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * 256)

    def test_session_id_from_headers(self):
        assert session_id_from_headers(
            {"Cookie": "repro_session=s7"}
        ) == "s7"
        assert session_id_from_headers({}) is None


# -- response encoding --------------------------------------------------------


class TestEncodeResponse:
    def test_basic_200(self):
        response = HttpResponse(status=200, body="<html>hi</html>")
        wire = encode_response(response, date="D")
        head, _, body = wire.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Date: D" in lines
        assert "Content-Type: text/html" in lines
        assert f"Content-Length: {len(response.body)}" in lines
        assert "Connection: keep-alive" in lines
        assert body == b"<html>hi</html>"

    def test_header_order_deterministic(self):
        response = HttpResponse(status=200, body="x",
                                headers={"ETag": '"e"', "Cache-Control": "no-cache"})
        assert encode_response(response, date="D") == encode_response(
            HttpResponse(status=200, body="x",
                         headers={"ETag": '"e"', "Cache-Control": "no-cache"}),
            date="D",
        )

    def test_304_has_no_body_or_length(self):
        wire = encode_response(HttpResponse.not_modified('"e"'), date="D")
        assert wire.endswith(b"\r\n\r\n")
        text = wire.decode()
        assert "304 Not Modified" in text
        assert "Content-Length" not in text
        assert "Content-Type" not in text

    def test_encoded_body_wins(self):
        body = "x" * 500
        response = HttpResponse(status=200, body=body)
        response.encoded_body = gzip.compress(body.encode(), mtime=0)
        response.headers["Content-Encoding"] = "gzip"
        wire = encode_response(response, date="D")
        assert f"Content-Length: {len(response.encoded_body)}".encode() in wire
        assert wire.endswith(response.encoded_body)

    def test_close_connection_header(self):
        wire = encode_response(HttpResponse(body="x"), keep_alive=False,
                               date="D")
        assert b"Connection: close" in wire

    def test_chunked_head(self):
        wire = encode_response(HttpResponse(body=""), date="D", chunked=True)
        assert b"Transfer-Encoding: chunked" in wire
        assert b"Content-Length" not in wire
        assert wire.endswith(b"\r\n\r\n")

    def test_chunk_framing(self):
        assert encode_chunk(b"hello") == b"5\r\nhello\r\n"
        assert LAST_CHUNK == b"0\r\n\r\n"

    def test_encode_simple(self):
        wire = encode_simple(400, "bad", date="D")
        assert wire.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in wire
        assert wire.endswith(b"bad")


# -- the connection state machine --------------------------------------------


def _request(version="HTTP/1.1", connection=None, session=None,
             cookie=None) -> HttpRequest:
    headers = {}
    if connection:
        headers["Connection"] = connection
    if cookie:
        headers["Cookie"] = f"repro_session={cookie}"
    return HttpRequest(path="/x", headers=headers, http_version=version,
                       session_id=session)


class TestHttpConnection:
    @pytest.mark.parametrize("version,connection,expect_keep", [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "keep-alive", True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.0", None, False),
        ("HTTP/1.0", "keep-alive", True),
        ("HTTP/1.0", "close", False),
    ])
    def test_keep_alive_matrix(self, version, connection, expect_keep):
        request = _request(version, connection)
        assert HttpConnection.keep_alive_after(request) is expect_keep

    def test_close_latches(self):
        conn = HttpConnection()
        wire = conn.send_response(_request(connection="close"),
                                  HttpResponse(body="x"), date="D")
        assert b"Connection: close" in wire
        assert conn.should_close
        # pipelined input after a close-marked response is discarded
        assert conn.receive_bytes(b"GET /y HTTP/1.1\r\nHost: x\r\n\r\n") == []

    def test_keep_alive_persists(self):
        conn = HttpConnection()
        conn.send_response(_request(), HttpResponse(body="x"), date="D")
        assert not conn.should_close
        assert conn.requests_handled == 1

    def test_new_session_sets_cookie(self):
        conn = HttpConnection()
        request = _request(session="s9")  # app assigned s9, none presented
        response = HttpResponse(body="x")
        conn.send_response(request, response, date="D")
        assert response.headers["Set-Cookie"] == "repro_session=s9; Path=/"

    def test_presented_session_sets_no_cookie(self):
        conn = HttpConnection()
        request = _request(session="s9", cookie="s9")
        response = HttpResponse(body="x")
        conn.send_response(request, response, date="D")
        assert "Set-Cookie" not in response.headers


# -- the delivery policy ------------------------------------------------------


class TestDeliveryPolicy:
    def test_etag_matches(self):
        assert etag_matches('"a"', '"a"')
        assert etag_matches('"a", "b"', '"b"')
        assert etag_matches("*", '"anything"')
        assert not etag_matches('"a"', '"b"')
        assert not etag_matches(None, '"a"')

    def test_accepts_gzip(self):
        assert accepts_gzip(HttpRequest(
            path="/", headers={"Accept-Encoding": "gzip, deflate"}
        ))
        assert not accepts_gzip(HttpRequest(path="/"))

    def test_cache_control(self):
        assert cache_control_for(False, None) == "public, no-cache"
        assert cache_control_for(True, None) == "private, no-cache"
        assert cache_control_for(False, 30.0) == "public, max-age=30"

    def test_entry_response_roundtrip(self):
        cache = PageCache()
        body = "<html>" + "x" * GZIP_MIN_BYTES + "</html>"
        entry = cache.make_entry(body)
        plain = entry_response(entry, HttpRequest(path="/"), "public, no-cache")
        assert plain.status == 200 and plain.body == body
        assert plain.headers["ETag"] == content_etag(body)
        gzipped = entry_response(
            entry, HttpRequest(path="/", headers={"Accept-Encoding": "gzip"}),
            "public, no-cache",
        )
        assert gzipped.encoded_body == entry.gzip_body
        assert gzipped.headers["Vary"] == "Accept-Encoding"
        revalidated = entry_response(
            entry, HttpRequest(path="/", headers={"If-None-Match": entry.etag}),
            "public, no-cache",
        )
        assert revalidated.status == 304 and revalidated.body == ""

    def test_finalize_digests_fresh_render(self):
        request = HttpRequest(path="/")
        response = finalize_delivery(request, HttpResponse(body="<p>x</p>"))
        assert response.headers["ETag"] == content_etag("<p>x</p>")
        assert response.headers["Cache-Control"] == "no-cache"

    def test_finalize_leaves_non_html_alone(self):
        response = HttpResponse(body="text", content_type="text/plain")
        assert "ETag" not in finalize_delivery(
            HttpRequest(path="/"), response
        ).headers


# -- page-cache flight helpers (the streaming contract) -----------------------


class TestFlightHelpers:
    def test_leader_and_followers(self):
        cache = PageCache()
        assert cache.begin_flight("k")
        assert not cache.begin_flight("k")
        cache.finish_flight("k")
        assert cache.begin_flight("k")
        cache.finish_flight("k")

    def test_put_if_current_respects_generation(self):
        cache = PageCache()
        generation = cache.generation
        entry = cache.make_entry("body", keys=["Volume"])
        cache.invalidate_writes(["Volume"])
        assert not cache.put_if_current("k", entry, generation)
        assert cache.put_if_current("k", entry, cache.generation)
        assert cache.peek("k") is entry

    def test_peek_counts_no_miss(self):
        cache = PageCache()
        assert cache.peek("absent") is None
        assert cache.stats.misses == 0
        cache.put("k", cache.make_entry("body"))
        assert cache.peek("k") is not None
        assert cache.stats.hits == 1
