package oracle

import (
	"bytes"
	"testing"

	"sgr/internal/applog"
	"sgr/internal/sampling"
)

// FuzzCrawlJournal feeds arbitrary bytes through ParseCrawlJournal, the
// parse restored runs on every uploaded journal. It may error but must
// never panic; every crawl it accepts must pass sampling.NewCrawl again;
// and the torn-tail rule must hold: an accepted journal that ends in a
// newline after an intact record, followed by any partial line, parses
// to the same crawl.
func FuzzCrawlJournal(f *testing.F) {
	const valid = `{"t":"h","version":1,"nodes":10}` + "\n" +
		`{"t":"q","u":4,"nb":[1,2,3]}` + "\n" +
		`{"t":"q","u":9,"private":true}` + "\n" +
		`{"t":"q","u":1,"nb":[4]}` + "\n" +
		`{"t":"w","walk":[4,1,4]}` + "\n"
	f.Add([]byte(valid), []byte(`{"t":"q","u":7,"nb":[1,`))
	f.Add([]byte(valid[:len(valid)-5]), []byte(`{"t":"w"}`))                               // torn walk
	f.Add([]byte(valid+`{"t":"q","u":2}`+"\n"), []byte(nil))                               // walk invalidated
	f.Add([]byte(`{"t":"h","version":1,"nodes":10}`+"\nnot json\n"), []byte(`x`))          // damaged final record
	f.Add([]byte("not json\n"+valid), []byte(nil))                                         // damaged header
	f.Add([]byte(`{"t":"q","u":1,"nb":[2]}`+"\n"), []byte(nil))                            // missing header
	f.Add([]byte(`{"t":"h","version":2,"nodes":10}`+"\n"), []byte(nil))                    // unknown version
	f.Add([]byte(`{"t":"h","version":1}`+"\n"+`{"t":"q","u":-4,"nb":[2]}`+"\n"), []byte{}) // negative id
	f.Add([]byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, data, tail []byte) {
		c, err := ParseCrawlJournal(data)
		if err != nil {
			return
		}
		neighbors := make([][]int, len(c.Queried))
		for i, u := range c.Queried {
			neighbors[i] = c.Neighbors[u]
		}
		if _, err := sampling.NewCrawl(c.Queried, neighbors, c.Walk); err != nil {
			t.Fatalf("accepted crawl fails validation: %v", err)
		}
		// Only a journal without a torn tail of its own keeps its crawl:
		// after a partial line, its damaged last record would be interior.
		r := journalReplay{nodes: -1}
		if end, _ := applog.Replay(data, r.decode); end != len(data) {
			return
		}
		torn := append(append([]byte(nil), data...), bytes.ReplaceAll(tail, []byte("\n"), nil)...)
		c2, err := ParseCrawlJournal(torn)
		if err != nil {
			t.Fatalf("journal plus partial line %q rejected: %v", tail, err)
		}
		if !bytes.Equal(crawlJSON(t, c2), crawlJSON(t, c)) {
			t.Fatalf("partial line %q changed the crawl", tail)
		}
	})
}
