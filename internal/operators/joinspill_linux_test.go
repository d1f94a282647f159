package operators

import (
	"os"
	"os/exec"
	"syscall"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// sealFailEnv marks the child process TestJoinSealFailureKeepsBuildInMemory
// runs itself in: the file-size limit it lowers is the whole process's.
const sealFailEnv = "JOIN_SEAL_FAILURE_CHILD"

// TestJoinSealFailureKeepsBuildInMemory: a revocation that lands after the
// built transition writes the build pages and seals the file in one step. A
// disk that fails the seal — here a file-size limit below the file, which the
// write buffer reaches only when the seal flushes it — must not lose the
// pages: the revocation reports the error, no file is left, the bridge keeps
// its pages and index, and the join emits every row the reference does.
func TestJoinSealFailureKeepsBuildInMemory(t *testing.T) {
	if os.Getenv(sealFailEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v")
		cmd.Env = append(os.Environ(), sealFailEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	buildPages, probePages := joinSpillPages(4, 80, 17, 0), joinSpillPages(3, 90, 29, 3)
	rowTs := []types.Type{types.Bigint, types.Varchar}
	dir := t.TempDir()
	bridge := NewJoinBridge()
	bridge.EnableSpill(spillTestMem(), dir, []int{0}, rowTs[:1])
	bridge.AddBuilder()
	hb := NewHashBuild(NopContext(), bridge, []int{0}, rowTs[:1])
	for _, p := range buildPages {
		if err := hb.AddInput(p); err != nil {
			t.Fatal(err)
		}
	}
	hb.Finish()
	bridge.NoMoreBuilders()
	if !bridge.built || bridge.ktab == nil {
		t.Fatal("the bridge did not index its build")
	}

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	low := lim
	low.Cur = 1 << 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &low); err != nil {
		t.Fatal(err)
	}
	_, err := bridge.Revoke()
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if err == nil {
		t.Fatal("the revocation sealed a file past the file-size limit")
	}
	t.Logf("revocation: %v", err)
	if bridge.SpillCount() != 0 || len(bridge.pages) != len(buildPages) || bridge.ktab == nil || !bridge.spl.build.Empty() {
		t.Fatalf("after the failed seal: %d spills, %d of %d pages, index %v, build files %v", bridge.SpillCount(), len(bridge.pages), len(buildPages), bridge.ktab != nil, !bridge.spl.build.Empty())
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("spill dir holds %d entries (%v)", len(left), err)
	}
	bridge.AddProbe()
	bridge.NoMoreProbes()
	op := NewLookupJoin(NopContext(), bridge, plan.FullJoin, []int{0}, nil, rowTs, rowTs, 0)
	got := rowCounts(drain(t, op, probePages...))
	assertSameCounts(t, "seal failed", got, refJoin(t, plan.FullJoin, buildPages, probePages, []int{0}, []int{0}, nil, rowTs, rowTs))
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	bridge.ReleaseSpill()
}
