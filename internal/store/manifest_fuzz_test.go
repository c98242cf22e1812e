package store

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// manifestBlob is a BlobStore whose manifest log is a fixed byte
// string; OpenBackend reads nothing else.
type manifestBlob struct {
	BlobStore
	data []byte
}

func (m manifestBlob) ManifestReader() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(m.data)), nil
}

// tornLine is the line a torn append cuts short: every proper prefix
// lacks the closing brace, so none of them parses.
const tornLine = `{"kind":"charge","key":"torn","hierarchy":"fp-torn","algorithm":"topdown","epsilon":1}`

// FuzzManifestReplay feeds arbitrary bytes to manifest replay, through
// a BlobStore that returns them as the log and through a disk store
// whose manifest file holds them. Every input opens or fails cleanly.
// An accepted newline-terminated log replays the same with a torn
// line (a prefix of tornLine, cut at cut) appended. On disk, NewDisk
// trims an unterminated tail, so one valid append after an accepted
// open is indexed on reopen, never glued onto torn bytes.
func FuzzManifestReplay(f *testing.F) {
	f.Add([]byte(""), uint16(0))
	f.Add([]byte(`{"kind":"charge","key":"k1","hierarchy":"fp1","algorithm":"topdown","epsilon":0.5}`+"\n"+
		`{"key":"k1","hierarchy":"fp1","algorithm":"topdown","epsilon":0.5,"cost_bytes":10,"created_at":"2023-11-14T22:13:20Z"}`+"\n"+
		`{"kind":"refund","key":"k2","hierarchy":"fp1","epsilon":0.25}`+"\n"+
		`{"kind":"event","key":"event/h1/1","hierarchy":"h1","seq":1}`+"\n"), uint16(7))
	f.Add([]byte(`{"key":"k1","hierarchy":"fp1","epsilon":1}`+"\n"+`{"key":"k2","hier`), uint16(30))
	f.Add([]byte("not json\n"+`{"key":"k2","hierarchy":"fp1","epsilon":1}`+"\n"), uint16(3))
	f.Add([]byte("\n  \n"+`{"key":"k3"}`), uint16(80))
	f.Add([]byte("0\n"), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		s, err := OpenBackend(manifestBlob{data: data})
		if err == nil && (len(data) == 0 || data[len(data)-1] == '\n') {
			torn := append(bytes.Clone(data), tornLine[:1+int(cut)%(len(tornLine)-1)]...)
			s2, err := OpenBackend(manifestBlob{data: torn})
			if err != nil {
				t.Fatalf("accepted log fails with a torn line appended: %v", err)
			}
			if !reflect.DeepEqual(s.idx, s2.idx) {
				t.Fatalf("a torn line changed the replay:\n%+v\n%+v", s.idx, s2.idx)
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			return
		}
		want := d.EpsilonByHierarchy()["fp-after"] + 1
		if err := d.AppendCharge(Meta{Key: "after", Hierarchy: "fp-after", Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
		d.Close()
		reopened, err := Open(dir)
		if err != nil {
			t.Fatalf("an append after an accepted open broke the manifest: %v", err)
		}
		defer reopened.Close()
		if got := reopened.EpsilonByHierarchy()["fp-after"]; got != want {
			t.Fatalf("after an append of 1, fp-after replays as spend %g, want %g", got, want)
		}
	})
}
