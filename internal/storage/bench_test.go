package storage

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
	"kaleido/internal/storage/vfs"
)

// BenchmarkAppendGroup is the per-group cost of a level build, one op per
// group written through NextGroup/CommitGroup, with 1, 2 and 4 writers each appending to its own part as the
// explorer's workers do: unbudgeted; budgeted, under a watermark the build
// never reaches, so every part stays raw and what differs from unbudgeted is
// the governor's accounting; and all-disk, where every group is encoded into
// codec blocks and written behind. The builder is wired as the explorer wires
// it — a tracker and the watermark on its live bytes. A round
// appends at most roundGroups groups per writer, then Finishes and Closes
// the level, so the resident bytes stay small whatever b.N is.
func BenchmarkAppendGroup(b *testing.B) {
	const roundGroups = 1 << 15
	// A store4-sized group: the depth-4 groups of the repo benchmark's store4
	// jobs hold 28.65 children on average.
	group := make([]uint32, 29)
	for j := range group {
		group[j] = uint32(3 + 7*j)
	}
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
				hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, b.TempDir(), q, regime.budget)
				b.ReportAllocs()
				b.ResetTimer()
				appended := 0
				for appended < b.N {
					per := min(roundGroups, (b.N-appended+writers-1)/writers)
					hb.Reset(2, writers, nil)
					var wg sync.WaitGroup
					for w := 0; w < writers; w++ {
						wg.Add(1)
						go func(p *hybridPartWriter) {
							defer wg.Done()
							for j := 0; j < per; j++ {
								if err := appendGroup(p, group); err != nil {
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

// benchStack builds a walker benchmark stack of the given depth: 4096 base
// units, each parent with 0..7 ascending children (3.5 on average, so depth 3
// holds ~50k and depth 4 ~175k embeddings), every level above the base built
// in six parts laid out as lay and read through default-sized prefetch
// windows.
func benchStack(b *testing.B, lay layout, depth int) *CSE {
	rng := rand.New(rand.NewSource(31))
	c := NewCSE(NewBaseLevel(base(4096)))
	for l := 2; l <= depth; l++ {
		groups := make([][]uint32, c.Top().Len())
		for p := range groups {
			g := make([]uint32, rng.Intn(8))
			cur := rng.Uint32() % 1000
			for j := range g {
				cur += 1 + uint32(rng.Intn(16))
				g[j] = cur
			}
			groups[p] = g
		}
		_, hl, _ := buildLevels(b, nil, groups, 6, lay)
		hl.blockSize = DefaultBlockSize
		if err := c.Push(hl); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// walkSink keeps the benchmarked walks from being optimized away.
var walkSink uint32

// BenchmarkWalkerNextRun is the walker's cost per embedding — one op is one
// embedding NextRun hands out — over stacks of depth 3 and 4 whose levels
// above the base are all raw, all on disk, or mixed part by part. Every pass
// Resets the pooled walker over the whole top level, as a worker does per
// chunk, so the steady state allocates nothing.
func BenchmarkWalkerNextRun(b *testing.B) {
	for _, depth := range []int{3, 4} {
		for _, lay := range []layout{layoutRaw, layoutDisk, layoutMixed} {
			b.Run(fmt.Sprintf("depth%d/%s", depth, lay.name), func(b *testing.B) {
				c := benchStack(b, lay, depth)
				n := c.Top().Len()
				w, err := NewWalker(c, 0, n)
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for done := 0; done < b.N; {
					if err := w.Reset(c, 0, n); err != nil {
						b.Fatal(err)
					}
					for done < b.N {
						emb, _, leaves, ok := w.NextRun()
						if !ok {
							break
						}
						for _, u := range leaves {
							emb[depth-1] = u
							walkSink += emb[0] ^ u
						}
						done += len(leaves)
					}
					if err := w.Err(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/emb")
			})
		}
	}
}

// codecShapes are full codec blocks of the value shapes TestCodecBlockRoundTrip
// round-trips: near-sorted runs with small deltas (the vert common case),
// uniform noise, and the max-delta extremes.
func codecShapes() []struct {
	name string
	vals []uint32
} {
	rng := rand.New(rand.NewSource(123))
	runs, noise, extremes := make([]uint32, codecBlockVals), make([]uint32, codecBlockVals), make([]uint32, codecBlockVals)
	cur := rng.Uint32() % 1000
	for i := range runs {
		if rng.Intn(40) == 0 {
			cur = rng.Uint32()
		} else if d := rng.Intn(16) - 4; d >= 0 || uint32(-d) <= cur {
			cur = uint32(int64(cur) + int64(d))
		}
		runs[i] = cur
		noise[i] = rng.Uint32()
		if i%2 == 1 {
			extremes[i] = math.MaxUint32
		}
	}
	return []struct {
		name string
		vals []uint32
	}{{"runs", runs}, {"noise", noise}, {"extremes", extremes}}
}

// BenchmarkCodecEncode is the block encoder's cost per value, one op per
// full block, for every shape as a vert and as a cnt stream.
func BenchmarkCodecEncode(b *testing.B) {
	for _, sh := range codecShapes() {
		for _, vert := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/vert=%v", sh.name, vert), func(b *testing.B) {
				var scratch, enc []byte
				b.SetBytes(int64(4 * len(sh.vals)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if vert {
						enc = appendVertBlock(enc[:0], sh.vals, &scratch)
					} else {
						enc = appendCntBlock(enc[:0], sh.vals, &scratch)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sh.vals)), "ns/value")
			})
		}
	}
}

// BenchmarkCodecDecode is the block decoder's cost per value (checksum
// included), one op per full block, for every shape as a vert and as a cnt
// stream.
func BenchmarkCodecDecode(b *testing.B) {
	for _, sh := range codecShapes() {
		for _, vert := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/vert=%v", sh.name, vert), func(b *testing.B) {
				var scratch []byte
				enc := encodeBlock(sh.vals, vert, &scratch)
				dst := make([]uint32, codecBlockVals)
				b.SetBytes(int64(4 * len(sh.vals)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := decodeCodecBlock(enc, vert, dst); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sh.vals)), "ns/value")
			})
		}
	}
}

// BenchmarkWriteQueue is the write queue's throughput in MB/s: one op submits
// one full DefaultBufSize buffer, appended to a spill file by the queue's I/O
// goroutine. The file is replaced every 32 buffers so the benchmark's disk
// footprint stays bounded; the timing includes draining the queue.
func BenchmarkWriteQueue(b *testing.B) {
	fs := vfs.OrOS(nil)
	path := filepath.Join(b.TempDir(), "q.bin")
	q := NewWriteQueue(DefaultBufSize, nil)
	defer q.Close()
	payload := make([]byte, DefaultBufSize)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	b.SetBytes(DefaultBufSize)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		f, err := fs.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 32 && done < b.N; j++ {
			q.Submit(f, append(q.GetBuf(), payload...))
			done++
		}
		if err := q.Barrier(); err != nil {
			b.Fatal(err)
		}
		if err := removeFiles(fs, f); err != nil {
			b.Fatal(err)
		}
	}
}
