package storage

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
)

// BenchmarkAppendGroup is the per-group cost of a level build, one op per
// group, with 1, 2 and 4 writers each appending to its own part as the
// explorer's workers do: unbudgeted; budgeted, under a watermark the build
// never reaches, so every part stays raw and what differs from unbudgeted is
// the governor's accounting; and all-disk, where every group is encoded into
// codec blocks and written behind. The builder is wired as the explorer wires
// it — a tracker, a pressure flag, the watermark as pressure limit. A round
// appends at most roundGroups groups per writer, then Finishes and Closes
// the level, so the resident bytes stay small whatever b.N is.
func BenchmarkAppendGroup(b *testing.B) {
	const roundGroups = 1 << 15
	group := []uint32{3, 17, 18, 40, 41, 97, 230, 231} // a store4-sized group of children
	for _, regime := range []struct {
		name   string
		budget int64
	}{
		{"unbudgeted", math.MaxInt64},
		{"budgeted", 1 << 30},
		{"alldisk", 0},
	} {
		for _, writers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/%dwriters", regime.name, writers), func(b *testing.B) {
				tracker := memtrack.New()
				q := NewWriteQueue(0, tracker)
				defer q.Close()
				var pressure atomic.Bool
				hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, b.TempDir(), q, &pressure, regime.budget)
				b.ReportAllocs()
				b.ResetTimer()
				appended := 0
				for appended < b.N {
					per := min(roundGroups, (b.N-appended+writers-1)/writers)
					hb.Reset(2, writers, regime.budget)
					var wg sync.WaitGroup
					for w := 0; w < writers; w++ {
						wg.Add(1)
						go func(p *hybridPartWriter) {
							defer wg.Done()
							for j := 0; j < per; j++ {
								if err := p.AppendGroup(group, nil); err != nil {
									b.Error(err)
									return
								}
							}
							if err := p.Flush(); err != nil {
								b.Error(err)
							}
						}(hb.Part(w))
					}
					wg.Wait()
					hl, err := hb.Finish()
					if err != nil {
						b.Fatal(err)
					}
					hl.Close()
					appended += per * writers
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(appended), "ns/group")
			})
		}
	}
}
