package cluster

import (
	"errors"
	"net/url"
	"testing"
)

// FuzzParsePeers feeds arbitrary -peers flag values to ParsePeers. It never
// panics; a rejection is ErrBadPeer, and every accepted peer has a non-empty
// ID unique in the list and an absolute http(s) base URL that NewNode takes.
func FuzzParsePeers(f *testing.F) {
	for _, seed := range []string{
		"a=http://h1:8080, b=http://h2:8080/",
		"a=https://h1",
		"",
		"a",
		"=url",
		"a=",
		"a=u,b",
		"a=http://x,a=http://y",
		"a=ftp://x",
		"a=http://x?q=1",
		"a=http:///",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		peers, err := ParsePeers(s)
		if err != nil {
			if !errors.Is(err, ErrBadPeer) {
				t.Fatalf("rejection %v is not ErrBadPeer", err)
			}
			return
		}
		seen := map[string]bool{}
		for _, p := range peers {
			if p.ID == "" || seen[p.ID] {
				t.Fatalf("accepted peer %+v: empty or duplicate ID", p)
			}
			seen[p.ID] = true
			u, err := url.Parse(p.URL)
			if err != nil || !u.IsAbs() || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				t.Fatalf("accepted peer %+v: not an absolute http(s) URL", p)
			}
		}
		const self = "\x00self"
		if _, err := NewNode(Config{Self: self, Peers: peers}); err != nil && !seen[self] {
			t.Fatalf("NewNode refused peers ParsePeers accepted: %v", err)
		}
	})
}
