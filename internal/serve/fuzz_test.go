package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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

// FuzzBatchQuery posts arbitrary bodies to POST /v1/query/batch on a
// memory-only server holding one small release. Whatever the body, the
// server must not panic, must answer with a status the endpoint
// documents, and on a 200 must return one result per query. The seeds
// are the bodies TestServeBatchQuery and TestServeCrossReleaseBatch
// send, aimed at the server's one release.
func FuzzBatchQuery(f *testing.F) {
	srv, err := NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		f.Fatal(err)
	}
	post := func(path string, body any, out any) {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		rec := serveBody(srv, http.MethodPost, path, raw)
		if rec.Code != http.StatusOK {
			f.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			f.Fatal(err)
		}
	}
	recs := make([]groupRecord, 0, len(smallGroups()))
	for _, g := range smallGroups() {
		recs = append(recs, groupRecord{Path: g.Path, Size: g.Size})
	}
	var hr hierarchyResponse
	post("/v1/hierarchy", hierarchyRequest{Root: "US", Groups: recs}, &hr)
	var rr releaseResponse
	post("/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 7}, &rr)
	rel := rr.Release

	wide := batchQueryRequest{Release: rel, Queries: make([]batchQueryEntry, 16)}
	for i := range wide.Queries {
		wide.Queries[i] = batchQueryEntry{Node: "US", TopCode: maxTopCodedCells / 16}
	}
	for _, body := range []batchQueryRequest{
		plainBatch(rel),
		plainBatch("r-nope"),
		{Release: rel},
		{Queries: plainBatch(rel).Queries},
		{Release: rel, Queries: make([]batchQueryEntry, maxBatchQueries+1)},
		wide,
		{Queries: []batchQueryEntry{{Op: "series", Releases: []string{rel, rel}, Node: "US", TopCode: maxTopCodedCells / 2}}},
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
