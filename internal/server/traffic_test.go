package server

import (
	"context"
	"testing"

	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// trafficReq builds one serve-wire-sized request from seed s: kind 0 is a
// sparse mask over denser inputs (Inner), 1 sparse inputs under a denser
// mask (Heap), 2 a complemented mask (MSA).
func trafficReq(kind int, s uint64) *wire.MultiplyReq {
	n := matrix.Index(1024)
	switch kind {
	case 0:
		return &wire.MultiplyReq{M: grgen.Random01Mask(n, n, 1, 3*s+1),
			A: grgen.ErdosRenyi(n, 32, 3*s+2), B: grgen.ErdosRenyi(n, 32, 3*s+3)}
	case 1:
		return &wire.MultiplyReq{M: grgen.Random01Mask(2*n, 2*n, 64, 3*s+1),
			A: grgen.ErdosRenyi(2*n, 2, 3*s+2), B: grgen.ErdosRenyi(2*n, 2, 3*s+3)}
	default:
		return &wire.MultiplyReq{Flags: wire.FlagComplement, M: grgen.Random01Mask(2*n, 2*n, 4, 3*s+1),
			A: grgen.ErdosRenyi(2*n, 4, 3*s+2), B: grgen.ErdosRenyi(2*n, 4, 3*s+3)}
	}
}

// trafficPool is n distinct requests cycling through the three kinds.
func trafficPool(n int, base uint64) []*wire.MultiplyReq {
	reqs := make([]*wire.MultiplyReq, n)
	for i := range reqs {
		reqs[i] = trafficReq(i%3, base+uint64(i))
	}
	return reqs
}

// BenchmarkMultiplyTraffic times Client.Multiply, one call at a time,
// against a local server with the default intern table, in four traffic
// shapes that decide whether operand references pay:
//
//   - hot: two clients over 12 requests, every operand held;
//   - cold: every operand new (generated with the timer stopped);
//   - over-capacity: one client cycling 60 requests (180 operands), past
//     both the server's 128 entries and the client's table, so neither
//     holds an operand when it comes round again;
//   - shared-churn: two clients, 24 requests each. Each fits its own
//     client's table, but together they overflow the server's, so every
//     reference a client holds has been evicted when it is sent again.
//
// resends/op is ClientStats.RefResends per call. Run it with a fixed
// count, e.g. -bench=MultiplyTraffic -benchtime=240x.
func BenchmarkMultiplyTraffic(b *testing.B) {
	hot := trafficPool(12, 1000)
	big := trafficPool(60, 2000)
	left, right := trafficPool(24, 3000), trafficPool(24, 4000)
	shapes := []struct {
		name    string
		clients int
		fresh   bool // next generates operands: keep it off the clock
		next    func(i int) *wire.MultiplyReq
	}{
		{"hot", 2, false, func(i int) *wire.MultiplyReq { return hot[i%len(hot)] }},
		{"cold", 2, true, func(i int) *wire.MultiplyReq { return trafficReq(i%3, 50000+uint64(i)) }},
		{"over-capacity", 1, false, func(i int) *wire.MultiplyReq { return big[i%len(big)] }},
		{"shared-churn", 2, false, func(i int) *wire.MultiplyReq {
			if i%2 == 0 {
				return left[i/2%len(left)]
			}
			return right[i/2%len(right)]
		}},
	}
	ctx := context.Background()
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			l, err := StartLocal(Config{Threads: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			cs := make([]*Client, sh.clients)
			for i := range cs {
				cs[i] = NewClient(l.URL, nil)
			}
			// Warm-up: two passes of the longest cycle, so every shape is
			// in its steady state when the timer starts.
			const warm = 2 * 48
			for i := 0; i < warm; i++ {
				if _, err := cs[i%len(cs)].Multiply(ctx, sh.next(i)); err != nil {
					b.Fatal(err)
				}
			}
			var resends int64
			for _, c := range cs {
				resends -= c.Stats().RefResends
			}
			b.ResetTimer()
			for i := warm; i < warm+b.N; i++ {
				if sh.fresh {
					b.StopTimer()
				}
				req := sh.next(i)
				if sh.fresh {
					b.StartTimer()
				}
				if _, err := cs[i%len(cs)].Multiply(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, c := range cs {
				resends += c.Stats().RefResends
			}
			b.ReportMetric(float64(resends)/float64(b.N), "resends/op")
		})
	}
}
