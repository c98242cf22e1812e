package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
)

// serveBody sends one request straight to srv.ServeHTTP.
func serveBody(srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// postOK posts body as JSON to srv.ServeHTTP, fails unless the answer
// is 200, and decodes it into out.
func postOK(tb testing.TB, srv *Server, path string, body, out any) {
	tb.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	rec := serveBody(srv, http.MethodPost, path, raw)
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		tb.Fatal(err)
	}
}

// newSmallLogServer starts a memory-only server holding one log, the
// smallGroups snapshot, and returns it with the log's id.
func newSmallLogServer(tb testing.TB) (*Server, string) {
	tb.Helper()
	srv, err := NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]client.EventGroup, 0, len(smallGroups()))
	for _, g := range smallGroups() {
		recs = append(recs, client.EventGroup{Path: g.Path, Size: g.Size})
	}
	var hr client.Hierarchy
	postOK(tb, srv, "/v1/hierarchy", hierarchyRequest{Root: "US", Groups: recs}, &hr)
	return srv, hr.ID
}

// FuzzBatchQuery posts arbitrary bodies to POST /v1/query/batch on a
// memory-only server holding one small release. Whatever the body, the
// server must not panic, must answer with a status the endpoint
// documents, and on a 200 must return one result per query. The seeds
// are the bodies TestServeBatchQuery and TestServeCrossReleaseBatch
// send, aimed at the server's one release, and a body just over the
// rank-statistic bound.
func FuzzBatchQuery(f *testing.F) {
	srv, id := newSmallLogServer(f)
	var rr client.Release
	postOK(f, srv, "/v1/release", client.ReleaseRequest{Hierarchy: id, Epsilon: 1, K: 50, Seed: 7}, &rr)
	rel := rr.Release

	wide := batchQueryRequest{Release: rel, Queries: make([]client.NodeQuery, 16)}
	for i := range wide.Queries {
		wide.Queries[i] = client.NodeQuery{Node: "US", TopCode: maxTopCodedCells / 16}
	}
	ranked := batchQueryRequest{Release: rel, Queries: []client.NodeQuery{{Node: "US", Quantiles: make([]float64, maxRankStats+1)}}}
	for _, body := range []batchQueryRequest{
		plainBatch(rel),
		plainBatch("r-nope"),
		{Release: rel},
		{Queries: plainBatch(rel).Queries},
		{Release: rel, Queries: make([]client.NodeQuery, maxBatchQueries+1)},
		wide,
		ranked,
		{Queries: []client.NodeQuery{{Op: "series", Releases: []string{rel, rel}, Node: "US", TopCode: maxTopCodedCells / 2}}},
		crossBatch(rel, rel),
		mixedBatch(rel, rel),
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveBody(srv, http.MethodPost, "/v1/query/batch", body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnsupportedMediaType:
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var req batchQueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp batchQueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable answer: %v: %s", err, rec.Body)
		}
		if len(resp.Results) != len(req.Queries) {
			t.Fatalf("%d results for %d queries", len(resp.Results), len(req.Queries))
		}
	})
}

// FuzzAppendEvents posts arbitrary bodies to POST
// /v1/hierarchy/{id}/events, each on a fresh memory-only server holding
// one small log. Whatever the body, the server must not panic, must
// answer with a status the endpoint documents, and must still release
// the log's head afterwards. The seeds are the bodies
// TestServeAppendEventsAndVersions and TestServeAppendEventsErrors
// send, plus a drift event.
func FuzzAppendEvents(f *testing.F) {
	or := func(size int64) []client.EventGroup { return []client.EventGroup{{Path: []string{"OR"}, Size: size}} }
	for _, body := range []appendEventsRequest{
		{Events: []client.Event{{Type: "delta", Add: or(3)}}},
		{},
		{Events: []client.Event{{Type: "delta", Add: or(1)}, {Type: "bogus"}}},
		{Events: []client.Event{{Type: "delta", Add: or(hcoc.MaxGroupSize + 1)}}},
		{Events: []client.Event{{Type: "delta", Drift: []client.EventDrift{{Path: []string{"OR"}, From: 1, To: hcoc.MaxGroupSize + 1, Count: 1}}}}},
		{Events: []client.Event{{Type: "delta", Add: []client.EventGroup{{Path: []string{"OR/Lane"}, Size: 1}}}}},
		{Events: []client.Event{{Type: "snapshot", Root: "US", Groups: []client.EventGroup{{Path: []string{"OR/Lane"}, Size: 1}}}}},
		{Events: []client.Event{{Type: "delta", Drift: []client.EventDrift{{Path: []string{"CA"}, From: 1, To: 2, Count: 3}}}}},
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		srv, id := newSmallLogServer(t)
		rec := serveBody(srv, http.MethodPost, "/v1/hierarchy/"+id+"/events", body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusUnsupportedMediaType:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var rr client.Release
		postOK(t, srv, "/v1/release", client.ReleaseRequest{Hierarchy: id, Epsilon: 1, K: 50, Seed: 1}, &rr)
	})
}
