package check

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"zoomie/internal/gen"
	"zoomie/internal/server"
)

// facadeLeg builds the in-process leg of a differential run for a
// registered design.
func facadeLeg(design string) (Target, error) {
	s, err := server.NewCatalogSessionWith(design, nil)
	if err != nil {
		return nil, err
	}
	return NewLocalTarget(s), nil
}

// TestFacadeLegRecordsPinned pins the facade leg's record stream for a
// small fixed campaign — seed 1, four designs, forty scripts, generated
// exactly as Run generates them — by its SHA-256. Every leg runs the op
// table's handlers, so local/remote parity cannot catch a handler change
// that moves all legs at once; this pin can.
func TestFacadeLegRecordsPinned(t *testing.T) {
	const want = "6c10c4f413d415869b098ffee781c7225ff8cc317950383a31d3a5d1ef3a409c"
	const seed, designs, scripts, opsPer, asserts = 1, 4, 40, 20, 2
	root := rand.New(rand.NewSource(seed))
	specs := make([]designSpec, designs)
	for i := range specs {
		specs[i] = designSpec{
			Name:    fmt.Sprintf("zcpin%d", i),
			DSeed:   root.Int63(),
			ASeed:   root.Int63(),
			Asserts: asserts,
		}
		specs[i].register()
		defer server.Unregister(specs[i].Name)
	}
	h := sha256.New()
	records := 0
	for si := 0; si < scripts; si++ {
		sp := specs[si%len(specs)]
		d, as := sp.build()
		sseed := int64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(si+1)*0x85ebca6b)
		ops := gen.RandomScript(rand.New(rand.NewSource(sseed)), d, opsPer, len(as))
		tg, err := facadeLeg(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		res := RunScript(tg, sp.Name, ops, ProbePlan(d))
		tg.Close()
		for _, r := range res.Records {
			io.WriteString(h, r+"\n")
		}
		records += len(res.Records)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("facade leg record stream (%d records) sha256 = %s, want %s", records, got, want)
	}
}
