package cluster

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c := New()
	for _, n := range []string{"A", "B", "C"} {
		if err := c.AddNode(Node{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func recvEvent(t *testing.T, ch <-chan Event) Event {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("no event")
		return Event{}
	}
}

func TestNodeRegistration(t *testing.T) {
	c := newTestCluster(t)
	nodes := c.Nodes()
	if len(nodes) != 3 || nodes[0].Name != "A" || nodes[2].Name != "C" {
		t.Fatalf("nodes = %v", nodes)
	}
	if err := c.AddNode(Node{Name: "A"}); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate node = %v, want ErrNodeExists", err)
	}
	if err := c.AddNode(Node{}); err == nil || errors.Is(err, ErrNodeExists) {
		t.Fatal("anonymous node must fail")
	}
}

func TestCreateInstanceLifecycle(t *testing.T) {
	c := newTestCluster(t)
	in, err := c.CreateInstance(Instance{Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	if in.UID == "" || in.Name == "" {
		t.Fatalf("instance lacks identity: %+v", in)
	}
	if in.Phase != Pending {
		t.Fatalf("phase = %v, want Pending", in.Phase)
	}
	got, ok := c.Get(in.UID)
	if !ok || got.Function != "sobel-1" {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if err := c.DeleteInstance(in.UID); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(in.UID); ok {
		t.Fatal("deleted instance still visible")
	}
	if err := c.DeleteInstance(in.UID); err == nil {
		t.Fatal("double delete must fail")
	}
}

func TestCreateValidation(t *testing.T) {
	c := newTestCluster(t)
	if _, err := c.CreateInstance(Instance{}); err == nil {
		t.Fatal("instance without function must fail")
	}
	if _, err := c.CreateInstance(Instance{Function: "f", Node: "nope"}); err == nil {
		t.Fatal("unknown node must fail")
	}
	in, err := c.CreateInstance(Instance{Function: "f", Node: "B"})
	if err != nil {
		t.Fatal(err)
	}
	if in.Phase != Running {
		t.Fatalf("pre-bound instance phase = %v", in.Phase)
	}
}

func TestPatchInstance(t *testing.T) {
	c := newTestCluster(t)
	in, _ := c.CreateInstance(Instance{Function: "mm-1"})
	node := "C"
	patched, err := c.PatchInstance(in.UID, Patch{
		Env:        map[string]string{"BF_MANAGER": "10.0.0.3:5000"},
		AddVolumes: []string{"/dev/shm", "/dev/shm"},
		Node:       &node,
	})
	if err != nil {
		t.Fatal(err)
	}
	if patched.Node != "C" || patched.Phase != Running {
		t.Fatalf("patched = %+v", patched)
	}
	if patched.Env["BF_MANAGER"] != "10.0.0.3:5000" {
		t.Fatalf("env = %v", patched.Env)
	}
	if len(patched.Volumes) != 1 {
		t.Fatalf("volumes = %v (duplicates must collapse)", patched.Volumes)
	}
	if _, err := c.PatchInstance("uid-404", Patch{}); err == nil {
		t.Fatal("patching a missing instance must fail")
	}
	bad := "nope"
	if _, err := c.PatchInstance(in.UID, Patch{Node: &bad}); err == nil {
		t.Fatal("patching onto an unknown node must fail")
	}
}

func TestWatchReceivesLifecycle(t *testing.T) {
	c := newTestCluster(t)
	ch, cancel := c.Watch(16)
	defer cancel()

	in, _ := c.CreateInstance(Instance{Function: "sobel-1"})
	ev := recvEvent(t, ch)
	if ev.Type != Added || ev.Instance.UID != in.UID {
		t.Fatalf("event = %+v", ev)
	}
	node := "A"
	c.PatchInstance(in.UID, Patch{Node: &node})
	ev = recvEvent(t, ch)
	if ev.Type != Modified || ev.Instance.Node != "A" {
		t.Fatalf("event = %+v", ev)
	}
	c.DeleteInstance(in.UID)
	ev = recvEvent(t, ch)
	if ev.Type != Deleted {
		t.Fatalf("event = %+v", ev)
	}
	cancel()
	if _, ok := <-ch; ok {
		// Drain until closed; at most the buffered events remain.
		for range ch {
		}
	}
}

func TestWatchInitialSync(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 40; i++ { // more than the minimum buffer
		if _, err := c.CreateInstance(Instance{Function: "f"}); err != nil {
			t.Fatal(err)
		}
	}
	ch, cancel := c.Watch(4)
	defer cancel()
	seen := 0
	timeout := time.After(2 * time.Second)
	for seen < 40 {
		select {
		case ev := <-ch:
			if ev.Type != Added {
				t.Fatalf("initial sync event = %v", ev.Type)
			}
			seen++
		case <-timeout:
			t.Fatalf("initial sync delivered %d/40", seen)
		}
	}
}

func TestWatchersIsolatedFromMutation(t *testing.T) {
	c := newTestCluster(t)
	in, _ := c.CreateInstance(Instance{Function: "f", Env: map[string]string{"k": "v"}})
	ch, cancel := c.Watch(16)
	defer cancel()
	ev := recvEvent(t, ch)
	ev.Instance.Env["k"] = "mutated"
	got, _ := c.Get(in.UID)
	if got.Env["k"] != "v" {
		t.Fatal("watcher mutation leaked into the store")
	}
}

func TestReplaceInstanceCreateBeforeDelete(t *testing.T) {
	c := newTestCluster(t)
	node := "B"
	orig, _ := c.CreateInstance(Instance{
		Function: "alexnet-1",
		Env:      map[string]string{"BF_MANAGER": "old"},
		Volumes:  []string{"/dev/shm"},
	})
	c.PatchInstance(orig.UID, Patch{Node: &node})

	ch, cancel := c.Watch(16)
	defer cancel()
	recvEvent(t, ch) // initial sync of orig

	repl, err := c.ReplaceInstance(orig.UID)
	if err != nil {
		t.Fatal(err)
	}
	// Order matters: Added (new) strictly before Deleted (old).
	ev1 := recvEvent(t, ch)
	ev2 := recvEvent(t, ch)
	if ev1.Type != Added || ev1.Instance.UID != repl.UID {
		t.Fatalf("first event = %+v, want Added(new)", ev1)
	}
	if ev2.Type != Deleted || ev2.Instance.UID != orig.UID {
		t.Fatalf("second event = %+v, want Deleted(old)", ev2)
	}
	if repl.Node != "" || repl.Phase != Pending {
		t.Fatalf("replacement must be unbound: %+v", repl)
	}
	if repl.Env["BF_MANAGER"] != "old" || len(repl.Volumes) != 1 {
		t.Fatalf("replacement lost spec: %+v", repl)
	}
	if repl.Function != "alexnet-1" {
		t.Fatalf("function = %q", repl.Function)
	}
}

func TestInstancesQueries(t *testing.T) {
	c := newTestCluster(t)
	nodeA, nodeB := "A", "B"
	i1, _ := c.CreateInstance(Instance{Function: "sobel-1"})
	i2, _ := c.CreateInstance(Instance{Function: "sobel-1"})
	i3, _ := c.CreateInstance(Instance{Function: "mm-1"})
	c.PatchInstance(i1.UID, Patch{Node: &nodeA})
	c.PatchInstance(i2.UID, Patch{Node: &nodeB})
	c.PatchInstance(i3.UID, Patch{Node: &nodeA})

	if got := c.Instances("sobel-1"); len(got) != 2 {
		t.Fatalf("sobel-1 instances = %d", len(got))
	}
	if got := c.Instances(""); len(got) != 3 {
		t.Fatalf("all instances = %d", len(got))
	}
	onA := 0
	for _, in := range c.Instances("") {
		if in.Node == "A" {
			onA++
		}
	}
	if onA != 2 {
		t.Fatalf("instances on A = %d", onA)
	}
}

func TestWatchStreamConsistencyProperty(t *testing.T) {
	// Property: for any random sequence of create/patch/delete operations,
	// replaying the watch event stream reconstructs exactly the final
	// instance set of the API server.
	check := func(ops []uint16) bool {
		c := New()
		c.AddNode(Node{Name: "N"})
		ch, cancel := c.Watch(len(ops) + 16)
		defer cancel()
		var uids []string
		node := "N"
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // create (more likely)
				in, err := c.CreateInstance(Instance{Function: "f"})
				if err != nil {
					return false
				}
				uids = append(uids, in.UID)
			case 2: // patch a random live instance
				if len(uids) > 0 {
					c.PatchInstance(uids[int(op)%len(uids)], Patch{Node: &node})
				}
			case 3: // delete a random instance (may already be gone)
				if len(uids) > 0 {
					i := int(op) % len(uids)
					c.DeleteInstance(uids[i])
					uids = append(uids[:i], uids[i+1:]...)
				}
			}
		}
		cancel()
		// Replay the stream.
		replayed := map[string]Instance{}
		for ev := range ch {
			switch ev.Type {
			case Added, Modified:
				replayed[ev.Instance.UID] = ev.Instance
			case Deleted:
				delete(replayed, ev.Instance.UID)
			}
		}
		want := c.Instances("")
		if len(want) != len(replayed) {
			return false
		}
		for _, in := range want {
			got, ok := replayed[in.UID]
			if !ok || got.Node != in.Node || got.Phase != in.Phase {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
