// Package cluster is the reproduction's cloud orchestrator — the slice of
// Kubernetes the paper's Accelerators Registry integrates with.
//
// The Registry uses exactly four orchestrator capabilities, all provided
// here: watching function-instance creation and deletion; patching a
// notified instance (environment variables, shared-memory volumes, forced
// host allocation); binding instances to nodes; and replacing instances
// with create-before-delete ordering, which is what makes BlastFunction's
// migrations safe ("Kubernetes creates new instances before deleting the
// previous ones: in this way the Registry can patch and schedule them on a
// different node").
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Phase is an instance's lifecycle phase.
type Phase string

// Instance phases.
const (
	// Pending instances exist but are not bound to a node yet.
	Pending Phase = "Pending"
	// Running instances are bound and serving.
	Running Phase = "Running"
	// Terminating instances are being torn down (still visible).
	Terminating Phase = "Terminating"
)

// Node is a cluster member.
type Node struct {
	// Name identifies the node (e.g. "A", "B", "C").
	Name string
}

// Instance is the function-instance (pod) object.
type Instance struct {
	// UID is the orchestrator-assigned unique identity.
	UID string
	// Name is the instance name, e.g. "sobel-1-7f9c".
	Name string
	// Function is the owning serverless function, e.g. "sobel-1".
	Function string
	// Node is the bound node name; empty while unscheduled.
	Node string
	// Env carries environment variables; the Registry injects the Device
	// Manager address and transport settings here.
	Env map[string]string
	// Volumes lists mounted volumes; the Registry adds the shared-memory
	// volume for co-located data transfers.
	Volumes []string
	// Phase is the lifecycle phase.
	Phase Phase
	// CreatedAt is the creation timestamp.
	CreatedAt time.Time
}

// clone returns a deep copy so watchers cannot mutate stored state.
func (in Instance) clone() Instance {
	out := in
	if in.Env != nil {
		out.Env = make(map[string]string, len(in.Env))
		for k, v := range in.Env {
			out.Env[k] = v
		}
	}
	out.Volumes = append([]string(nil), in.Volumes...)
	return out
}

// EventType discriminates watch events.
type EventType int

// Watch event types.
const (
	Added EventType = iota
	Modified
	Deleted
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case Added:
		return "ADDED"
	case Modified:
		return "MODIFIED"
	case Deleted:
		return "DELETED"
	}
	return "UNKNOWN"
}

// Event is one watch notification.
type Event struct {
	Type     EventType
	Instance Instance
}

// Patch describes a partial instance update, mirroring the strategic-merge
// patch the Registry applies when it intercepts a creation.
type Patch struct {
	// Env entries are merged into the instance environment.
	Env map[string]string
	// AddVolumes are appended (duplicates skipped).
	AddVolumes []string
	// Node, when non-nil, force-binds the instance to the node and moves
	// it to Running (the paper's "forces the host allocation").
	Node *string
}

// Cluster is the in-memory API server.
type Cluster struct {
	mu        sync.Mutex
	nodes     map[string]Node
	instances map[string]*Instance
	watchers  map[int]chan Event
	nextWatch int
	nextUID   int
	// Now is injectable for deterministic tests.
	Now func() time.Time
}

// New creates an empty cluster.
func New() *Cluster {
	return &Cluster{
		nodes:     make(map[string]Node),
		instances: make(map[string]*Instance),
		watchers:  make(map[int]chan Event),
		Now:       time.Now,
	}
}

// ErrNodeExists is wrapped by AddNode when the name is already taken.
var ErrNodeExists = errors.New("node already registered")

// AddNode registers a node.
func (c *Cluster) AddNode(n Node) error {
	if n.Name == "" {
		return fmt.Errorf("cluster: node needs a name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[n.Name]; ok {
		return fmt.Errorf("cluster: node %q: %w", n.Name, ErrNodeExists)
	}
	c.nodes[n.Name] = n
	return nil
}

// Nodes lists registered nodes sorted by name.
func (c *Cluster) Nodes() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// notify broadcasts an event to every watcher. Called with c.mu held.
func (c *Cluster) notify(ev Event) {
	for _, ch := range c.watchers {
		ch <- ev
	}
}

// CreateInstance stores a new instance in Pending phase (or Running if the
// spec pre-binds a node) and notifies watchers.
func (c *Cluster) CreateInstance(spec Instance) (Instance, error) {
	if spec.Function == "" {
		return Instance{}, fmt.Errorf("cluster: instance needs a function name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if spec.Node != "" {
		if _, ok := c.nodes[spec.Node]; !ok {
			return Instance{}, fmt.Errorf("cluster: unknown node %q", spec.Node)
		}
	}
	c.nextUID++
	in := spec.clone()
	in.UID = fmt.Sprintf("uid-%d", c.nextUID)
	if in.Name == "" {
		in.Name = fmt.Sprintf("%s-%d", in.Function, c.nextUID)
	}
	in.Phase = Pending
	if in.Node != "" {
		in.Phase = Running
	}
	in.CreatedAt = c.Now()
	c.instances[in.UID] = &in
	c.notify(Event{Type: Added, Instance: in.clone()})
	return in.clone(), nil
}

// Get returns an instance by UID.
func (c *Cluster) Get(uid string) (Instance, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in, ok := c.instances[uid]
	if !ok {
		return Instance{}, false
	}
	return in.clone(), true
}

// Instances lists instances sorted by UID; filter by function name unless
// empty.
func (c *Cluster) Instances(function string) []Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Instance, 0, len(c.instances))
	for _, in := range c.instances {
		if function == "" || in.Function == function {
			out = append(out, in.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UID < out[j].UID })
	return out
}

// PatchInstance applies a partial update and notifies watchers.
func (c *Cluster) PatchInstance(uid string, p Patch) (Instance, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in, ok := c.instances[uid]
	if !ok {
		return Instance{}, fmt.Errorf("cluster: instance %q not found", uid)
	}
	if p.Node != nil {
		if _, ok := c.nodes[*p.Node]; !ok {
			return Instance{}, fmt.Errorf("cluster: unknown node %q", *p.Node)
		}
		in.Node = *p.Node
		in.Phase = Running
	}
	if len(p.Env) > 0 && in.Env == nil {
		in.Env = make(map[string]string, len(p.Env))
	}
	for k, v := range p.Env {
		in.Env[k] = v
	}
	for _, v := range p.AddVolumes {
		dup := false
		for _, have := range in.Volumes {
			if have == v {
				dup = true
				break
			}
		}
		if !dup {
			in.Volumes = append(in.Volumes, v)
		}
	}
	c.notify(Event{Type: Modified, Instance: in.clone()})
	return in.clone(), nil
}

// DeleteInstance removes an instance and notifies watchers.
func (c *Cluster) DeleteInstance(uid string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	in, ok := c.instances[uid]
	if !ok {
		return fmt.Errorf("cluster: instance %q not found", uid)
	}
	in.Phase = Terminating
	delete(c.instances, uid)
	c.notify(Event{Type: Deleted, Instance: in.clone()})
	return nil
}

// ReplaceInstance performs the create-before-delete migration primitive:
// it creates a fresh unbound clone of the instance (same function, env and
// volumes, no node) and only then deletes the original. The returned
// instance is Pending, ready for the Registry to patch onto another node.
func (c *Cluster) ReplaceInstance(uid string) (Instance, error) {
	c.mu.Lock()
	old, ok := c.instances[uid]
	if !ok {
		c.mu.Unlock()
		return Instance{}, fmt.Errorf("cluster: instance %q not found", uid)
	}
	spec := old.clone()
	c.mu.Unlock()

	spec.UID = ""
	spec.Name = ""
	spec.Node = ""
	created, err := c.CreateInstance(spec)
	if err != nil {
		return Instance{}, err
	}
	if err := c.DeleteInstance(uid); err != nil {
		return created, err
	}
	return created, nil
}

// Watch subscribes to instance events. The channel first receives
// synthetic Added events for every existing instance (informer-style
// initial sync), then live events. Call the returned cancel to
// unsubscribe; the channel closes afterwards. Watchers must drain the
// channel promptly: the API server blocks on slow watchers rather than
// dropping events the Registry depends on.
func (c *Cluster) Watch(buffer int) (<-chan Event, func()) {
	if buffer < 16 {
		buffer = 16
	}
	c.mu.Lock()
	// Size the buffer to hold the initial sync outright, so pushing it
	// under the lock cannot block.
	ch := make(chan Event, buffer+len(c.instances))
	id := c.nextWatch
	c.nextWatch++
	// Initial sync while holding the lock so no event is missed between
	// the snapshot and the subscription.
	uids := make([]string, 0, len(c.instances))
	for uid := range c.instances {
		uids = append(uids, uid)
	}
	sort.Strings(uids)
	for _, uid := range uids {
		ch <- Event{Type: Added, Instance: c.instances[uid].clone()}
	}
	c.watchers[id] = ch
	c.mu.Unlock()

	cancel := func() {
		c.mu.Lock()
		if w, ok := c.watchers[id]; ok {
			delete(c.watchers, id)
			close(w)
		}
		c.mu.Unlock()
	}
	return ch, cancel
}
