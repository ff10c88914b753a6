package group

import (
	"strconv"
	"testing"

	"ghba/internal/bloom"
	"ghba/internal/mds"
)

// testNode builds a small node for group tests.
func testNode(t *testing.T, id int) *mds.Node {
	t.Helper()
	cfg := mds.DefaultConfig()
	cfg.ExpectedFiles = 500
	cfg.LRUCapacity = 64
	n, err := mds.NewNode(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.AddFile("/node" + strconv.Itoa(id) + "/file")
	return n
}

// originFilter builds a replica filter for an external origin.
func originFilter(t *testing.T, origin int) *bloom.Filter {
	t.Helper()
	f, err := bloom.NewForCapacity(500, 16)
	if err != nil {
		t.Fatal(err)
	}
	f.AddString("/node" + strconv.Itoa(origin) + "/file")
	return f
}

// buildGroup creates a group with the given member IDs, registering all
// members in each other's IDBFAs.
func buildGroup(t *testing.T, groupID int, memberIDs ...int) *Group {
	t.Helper()
	g := New(groupID)
	for _, id := range memberIDs {
		node := testNode(t, id)
		g.members[id] = node
	}
	for _, n := range g.members {
		for _, id := range g.Members() {
			if err := n.IDBFA().AddMember(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// install distributes replicas of the given origins into the group.
func install(t *testing.T, g *Group, origins ...int) {
	t.Helper()
	for _, o := range origins {
		if _, err := g.InstallReplica(o, originFilter(t, o)); err != nil {
			t.Fatalf("InstallReplica(%d): %v", o, err)
		}
	}
}

// allIDs builds the full population list: members of all groups + externals.
func allIDs(groups []*Group, externals []int) []int {
	var ids []int
	for _, g := range groups {
		ids = append(ids, g.Members()...)
	}
	return append(ids, externals...)
}

func TestGroupBasics(t *testing.T) {
	g := buildGroup(t, 1, 0, 1, 2)
	if g.ID() != 1 || g.Size() != 3 {
		t.Errorf("ID/Size = %d/%d", g.ID(), g.Size())
	}
	if !g.HasMember(1) || g.HasMember(9) {
		t.Error("HasMember wrong")
	}
	if g.Member(2) == nil || g.Member(9) != nil {
		t.Error("Member wrong")
	}
	if len(g.Nodes()) != 3 {
		t.Error("Nodes wrong")
	}
}

func TestInstallReplicaBalances(t *testing.T) {
	g := buildGroup(t, 1, 0, 1, 2)
	install(t, g, 10, 11, 12, 13, 14, 15)
	for _, id := range g.Members() {
		if c := g.Member(id).ReplicaCount(); c != 2 {
			t.Errorf("member %d holds %d replicas, want 2", id, c)
		}
	}
}

func TestInstallReplicaRejectsMemberAndDuplicate(t *testing.T) {
	g := buildGroup(t, 1, 0, 1)
	if _, err := g.InstallReplica(0, originFilter(t, 0)); err == nil {
		t.Error("replica of own member accepted")
	}
	install(t, g, 5)
	if _, err := g.InstallReplica(5, originFilter(t, 5)); err == nil {
		t.Error("duplicate origin accepted")
	}
}

func TestInstallReplicaEmptyGroup(t *testing.T) {
	g := New(9)
	if _, err := g.InstallReplica(3, originFilter(t, 3)); err == nil {
		t.Error("install into empty group succeeded")
	}
}

func TestHolderOfAndLocate(t *testing.T) {
	g := buildGroup(t, 1, 0, 1, 2)
	install(t, g, 10, 11, 12)
	holder := g.HolderOf(11)
	if holder < 0 {
		t.Fatal("HolderOf lost origin 11")
	}
	candidates := g.LocateViaIDBFA(11)
	found := false
	for _, c := range candidates {
		if c == holder {
			found = true
		}
	}
	if !found {
		t.Errorf("IDBFA candidates %v do not include true holder %d", candidates, holder)
	}
	if g.HolderOf(99) != -1 {
		t.Error("HolderOf of unknown origin != -1")
	}
}

func TestUpdateReplica(t *testing.T) {
	g := buildGroup(t, 1, 0, 1, 2)
	install(t, g, 10)
	fresh := originFilter(t, 10)
	fresh.AddString("/node10/newfile")
	rep, err := g.UpdateReplica(10, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages < 1 {
		t.Error("update cost no messages")
	}
	holder := g.Member(g.HolderOf(10))
	if !holder.Replicas().Get(10).ContainsString("/node10/newfile") {
		t.Error("update did not reach holder")
	}
	if _, err := g.UpdateReplica(99, fresh); err == nil {
		t.Error("update of unknown origin succeeded")
	}
}

func TestRemoveOrigin(t *testing.T) {
	g := buildGroup(t, 1, 0, 1, 2)
	install(t, g, 10, 11)
	rep := g.RemoveOrigin(10)
	if rep.Messages == 0 {
		t.Error("removal cost no messages")
	}
	if g.HolderOf(10) != -1 {
		t.Error("origin still held after removal")
	}
	if len(g.LocateViaIDBFA(10)) != 0 {
		t.Error("IDBFA still locates removed origin")
	}
	// Removing an unknown origin is a no-op.
	if rep := g.RemoveOrigin(42); rep.Messages != 0 || rep.ReplicasMigrated != 0 {
		t.Error("removal of unknown origin cost something")
	}
}

func TestCoverageError(t *testing.T) {
	g := buildGroup(t, 1, 0, 1, 2)
	install(t, g, 10, 11)
	ids := []int{0, 1, 2, 10, 11}
	if err := g.CoverageError(ids); err != nil {
		t.Errorf("coverage should hold: %v", err)
	}
	if err := g.CoverageError(append(ids, 99)); err == nil {
		t.Error("missing origin 99 not detected")
	}
	// Duplicate coverage: install origin 10 directly on a second member.
	g.Member(1).InstallReplica(10, originFilter(t, 10))
	if g.HolderOf(10) < 0 {
		t.Fatal("setup broken")
	}
	if err := g.CoverageError(ids); err == nil {
		t.Error("double coverage not detected")
	}
}

func TestJoinRebalancesReplicas(t *testing.T) {
	// 3 members, 12 external origins → 4 each. Newcomer joins (total 16
	// MDSs: 4 members + 12 external) → target ⌈12/4⌉ = 3 each.
	g := buildGroup(t, 1, 0, 1, 2)
	externals := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
	install(t, g, externals...)
	newcomer := testNode(t, 3)
	rep, err := g.Join(newcomer, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 4 {
		t.Fatalf("Size = %d after join", g.Size())
	}
	if rep.ReplicasMigrated != 3 {
		t.Errorf("migrated %d replicas, want 3 (offload to newcomer)", rep.ReplicasMigrated)
	}
	if newcomer.ReplicaCount() != 3 {
		t.Errorf("newcomer holds %d, want 3", newcomer.ReplicaCount())
	}
	if err := g.CoverageError(allIDs([]*Group{g}, externals)); err != nil {
		t.Errorf("coverage broken after join: %v", err)
	}
	// IDBFA must locate every origin at its actual holder.
	for _, o := range externals {
		holder := g.HolderOf(o)
		cands := g.LocateViaIDBFA(o)
		ok := false
		for _, c := range cands {
			if c == holder {
				ok = true
			}
		}
		if !ok {
			t.Errorf("origin %d: IDBFA %v misses holder %d", o, cands, holder)
		}
	}
}

func TestJoinRejectsDuplicateAndNil(t *testing.T) {
	g := buildGroup(t, 1, 0, 1)
	if _, err := g.Join(nil, 10); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := g.Join(g.Member(0), 10); err == nil {
		t.Error("existing member accepted")
	}
}

func TestLeaveMigratesReplicas(t *testing.T) {
	g := buildGroup(t, 1, 0, 1, 2)
	externals := []int{10, 11, 12, 13, 14, 15}
	install(t, g, externals...)
	leaving := g.Member(1)
	had := leaving.ReplicaCount()
	if had == 0 {
		t.Fatal("setup: leaving member holds nothing")
	}
	rep, err := g.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicasMigrated != had {
		t.Errorf("migrated %d, want %d", rep.ReplicasMigrated, had)
	}
	if g.Size() != 2 {
		t.Errorf("Size = %d", g.Size())
	}
	// Coverage: remaining members + externals, minus departed member 1.
	ids := append([]int{0, 2}, externals...)
	if err := g.CoverageError(ids); err != nil {
		t.Errorf("coverage broken after leave: %v", err)
	}
	if _, err := g.Leave(42); err == nil {
		t.Error("leave of non-member succeeded")
	}
}

func TestLeaveLastMember(t *testing.T) {
	g := buildGroup(t, 1, 0)
	if _, err := g.Leave(0); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 0 {
		t.Error("group not empty")
	}
}

// TestLeavePlacementDeterministic pins that a departing member's replicas
// land on the same survivors in every identical run: Leave migrates them in
// ascending origin order, so the lightest-member choice for each origin
// cannot follow Go's randomized map order.
func TestLeavePlacementDeterministic(t *testing.T) {
	placements := map[string]int{}
	for run := 0; run < 30; run++ {
		g := buildGroup(t, 1, 1, 2, 3, 4)
		install(t, g, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21)
		if _, err := g.Leave(1); err != nil {
			t.Fatal(err)
		}
		var placement []byte
		for _, o := range g.ReplicaOrigins() {
			placement = strconv.AppendInt(placement, int64(o), 10)
			placement = append(placement, '@')
			placement = strconv.AppendInt(placement, int64(g.HolderOf(o)), 10)
			placement = append(placement, ' ')
		}
		placements[string(placement)]++
	}
	if len(placements) != 1 {
		t.Errorf("30 identical Leave runs gave %d distinct placements: %v", len(placements), placements)
	}
}

func TestRebalanceEvensLoad(t *testing.T) {
	g := buildGroup(t, 1, 0, 1, 2)
	// Pile 9 replicas onto member 0 directly.
	for o := 10; o < 19; o++ {
		g.Member(0).InstallReplica(o, originFilter(t, o))
		g.grantAll(0, o)
	}
	rep := g.Rebalance()
	if rep.ReplicasMigrated == 0 {
		t.Fatal("rebalance moved nothing")
	}
	for _, id := range g.Members() {
		if c := g.Member(id).ReplicaCount(); c != 3 {
			t.Errorf("member %d holds %d, want 3", id, c)
		}
	}
	// IDBFA still consistent.
	for o := 10; o < 19; o++ {
		holder := g.HolderOf(o)
		ok := false
		for _, c := range g.LocateViaIDBFA(o) {
			if c == holder {
				ok = true
			}
		}
		if !ok {
			t.Errorf("IDBFA lost origin %d after rebalance", o)
		}
	}
}

func TestSplitMaintainsCoverage(t *testing.T) {
	const maxM = 5
	g := buildGroup(t, 1, 0, 1, 2, 3, 4)
	externals := []int{10, 11, 12, 13, 14, 15, 16}
	install(t, g, externals...)
	newcomer := testNode(t, 5)
	b, rep, err := g.Split(2, newcomer, maxM)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicasMigrated == 0 || rep.Messages == 0 {
		t.Error("split reported no work")
	}
	// Sizes: A = M−⌊M/2⌋ = 3, B = ⌊M/2⌋+1 = 3.
	if g.Size() != 3 || b.Size() != 3 {
		t.Errorf("sizes = %d/%d, want 3/3", g.Size(), b.Size())
	}
	if !b.HasMember(5) {
		t.Error("newcomer not in new group")
	}
	// Both groups must cover the full population independently.
	population := allIDs([]*Group{g, b}, externals)
	if err := g.CoverageError(population); err != nil {
		t.Errorf("group A coverage: %v", err)
	}
	if err := b.CoverageError(population); err != nil {
		t.Errorf("group B coverage: %v", err)
	}
}

func TestSplitPreconditions(t *testing.T) {
	g := buildGroup(t, 1, 0, 1)
	if _, _, err := g.Split(2, nil, 5); err == nil {
		t.Error("nil newcomer accepted")
	}
	if _, _, err := g.Split(2, testNode(t, 9), 5); err == nil {
		t.Error("split below M accepted")
	}
	full := buildGroup(t, 3, 0, 1, 2, 3, 4)
	if _, _, err := full.Split(4, full.Member(0), 5); err == nil {
		t.Error("member as newcomer accepted")
	}
}

func TestMergeDeduplicatesAndCovers(t *testing.T) {
	// Two 2-member groups, each independently mirroring the other side and
	// the shared externals.
	a := buildGroup(t, 1, 0, 1)
	b := buildGroup(t, 2, 2, 3)
	externals := []int{10, 11, 12}
	install(t, a, externals...)
	install(t, b, externals...)
	install(t, a, 2, 3) // a mirrors b's members
	install(t, b, 0, 1) // b mirrors a's members
	population := []int{0, 1, 2, 3, 10, 11, 12}
	if err := a.CoverageError(population); err != nil {
		t.Fatalf("setup: %v", err)
	}

	rep, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 4 || b.Size() != 0 {
		t.Errorf("sizes after merge = %d/%d", a.Size(), b.Size())
	}
	if err := a.CoverageError(population); err != nil {
		t.Errorf("merged coverage: %v", err)
	}
	// Each external origin must be held exactly once; replicas of members
	// must be gone.
	for _, memberID := range []int{0, 1, 2, 3} {
		if a.HolderOf(memberID) != -1 {
			t.Errorf("replica of internal member %d survived merge", memberID)
		}
	}
	_ = rep
}

func TestMergeRejectsOverlapAndSelf(t *testing.T) {
	a := buildGroup(t, 1, 0, 1)
	if _, err := a.Merge(a); err == nil {
		t.Error("self-merge accepted")
	}
	if _, err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
	b := buildGroup(t, 2, 1, 2) // overlapping member 1
	if _, err := a.Merge(b); err == nil {
		t.Error("overlapping merge accepted")
	}
}

func TestReportAdd(t *testing.T) {
	r := Report{ReplicasMigrated: 1, Messages: 2}
	r.Add(Report{ReplicasMigrated: 3, Messages: 4})
	if r.ReplicasMigrated != 4 || r.Messages != 6 {
		t.Errorf("Add = %+v", r)
	}
}
