package apps

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
)

func TestBFSPathGraph(t *testing.T) {
	g := pathGraph(6)
	res, err := BFS(g, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if res.Level[v] != int32(v) {
			t.Fatalf("level[%d] = %d, want %d", v, res.Level[v], v)
		}
	}
	if res.Depth < 5 {
		t.Fatalf("depth = %d", res.Depth)
	}
}

func TestBFSMatchesExactOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		g := grgen.ErdosRenyiSym(matrix.Index(50+r.Intn(200)), 3, uint64(trial+1))
		src := matrix.Index(r.Intn(int(g.NRows)))
		res, err := BFS(g, src, core.Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := BFSExact(g, src)
		for v := range want {
			if res.Level[v] != want[v] {
				t.Fatalf("trial %d: level[%d] = %d, want %d", trial, v, res.Level[v], want[v])
			}
		}
	}
}

func TestBFSDirectionSwitch(t *testing.T) {
	// A star graph forces a pull step: after visiting the hub, the frontier
	// is the hub (degree n-1) and the unvisited candidate set is n-2 leaves;
	// push flops = n-1 per leaf reachability... construct a denser graph to
	// force a dense frontier against a small complement.
	g := grgen.RMAT(9, 32, 13)
	res, err := BFS(g, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PushSteps+res.PullSteps != res.Depth {
		t.Fatalf("steps %d+%d != depth %d", res.PushSteps, res.PullSteps, res.Depth)
	}
	if res.PushSteps == 0 {
		t.Error("expected at least one push step (singleton start frontier)")
	}
	want := BFSExact(g, 0)
	for v := range want {
		if res.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, res.Level[v], want[v])
		}
	}
}

func TestBFSErrors(t *testing.T) {
	g := pathGraph(4)
	if _, err := BFS(g, -1, core.Options{}); err == nil {
		t.Fatal("negative source")
	}
	if _, err := BFS(g, 4, core.Options{}); err == nil {
		t.Fatal("out of range source")
	}
}

func TestBFSIsolatedVertex(t *testing.T) {
	g := matrix.NewEmptyCSR[float64](5, 5)
	res, err := BFS(g, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range res.Level {
		want := int32(-1)
		if v == 2 {
			want = 0
		}
		if l != want {
			t.Fatalf("level[%d] = %d, want %d", v, l, want)
		}
	}
}
