package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/fuzz"
	"repro/internal/progs"
)

// workload is one named traffic mix. README.md records why each was
// chosen and which layer metrics it is expected to move.
type workload struct {
	name    string
	program string
	// exec creates the session with the data-plane executor.
	exec bool
	// writers is the number of closed-loop control-plane writers; zero
	// selects one open-loop writer at openRate writes per second.
	writers  int
	openRate float64
	// batch sends each stream's controller batch boundaries as batch
	// writes; otherwise every update is its own write.
	batch bool
	// execLoad runs a closed-loop /exec client beside the writer during
	// the timed window. Without it, /exec is measured after the window
	// against the final configuration with the control plane idle.
	execLoad bool
}

var workloads = []workload{
	{name: "ctl-single-nat44", program: "nat44", exec: true, writers: 1},
	{name: "ctl-batch-l4lb", program: "l4lb", writers: 2, batch: true},
	{name: "exec-churn-nat44", program: "nat44", exec: true, openRate: 20, execLoad: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

const (
	// streamUpdates is the length of one churn stream before its drain.
	streamUpdates = 48
	// drainChunk is how many drain deletes a batch writer sends per
	// write; drains have no controller batch boundaries of their own.
	drainChunk = 8
)

// write is one client write: a single update, or one controller batch.
type write struct {
	updates []*controlplane.Update
	batch   bool
	writer  int
	// net is the write's change to the churned table's entry count.
	net int
	// end is set on the last write of a stream's churn part (before its
	// drain): the stream's steady-state invariant holds right after it.
	end *fuzz.ChurnStream
}

// writerGen yields one writer's endless write sequence: every churn
// pattern in turn, each stream followed by its drain, so the table
// returns to its pre-stream state between streams. The sequence is a
// pure function of (program, seed, writer).
type writerGen struct {
	an     *dataplane.Analysis
	table  string
	seed   uint64
	writer int
	batch  bool

	stream  int // streams generated so far
	pending []write
	// cur is the stream being sent; inDrain is set once its churn part
	// was handed out.
	cur     *fuzz.ChurnStream
	inDrain bool
}

func newWriterGen(an *dataplane.Analysis, table string, seed uint64, writer int, batch bool) *writerGen {
	return &writerGen{an: an, table: table, seed: seed, writer: writer, batch: batch}
}

// streamSeed derives a stream's seed from the workload seed, the
// writer and the stream index (splitmix64 finalizer), so writers and
// streams never share a generator state.
func streamSeed(seed uint64, writer, stream int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(writer)<<32 + uint64(stream) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// warmupSeed seeds the warm-up streams of every run. The engine's cost
// per update depends on the path it took to its current state (the
// same streams run up to 1.8x slower after one early history than
// after another), so every run warms up along the same path and only
// the timed traffic varies with the workload seed.
const warmupSeed = 0

func (g *writerGen) refill() error {
	kinds := fuzz.PatternKinds()
	seed := g.seed
	if g.stream < warmupStreams {
		seed = warmupSeed
	}
	cs, err := fuzz.Churn(g.an, fuzz.ChurnSpec{
		Kind:    kinds[g.stream%len(kinds)],
		Table:   g.table,
		Updates: streamUpdates,
		Seed:    streamSeed(seed, g.writer, g.stream),
	})
	if err != nil {
		return fmt.Errorf("generating stream %d of writer %d: %w", g.stream, g.writer, err)
	}
	g.stream++
	g.cur = cs
	var churn [][]*controlplane.Update
	drain := cs.Drain()
	var drains [][]*controlplane.Update
	if g.batch {
		churn = cs.Batches()
		for i := 0; i < len(drain); i += drainChunk {
			drains = append(drains, drain[i:min(i+drainChunk, len(drain))])
		}
	} else {
		for _, u := range cs.Updates {
			churn = append(churn, []*controlplane.Update{u})
		}
		for _, u := range drain {
			drains = append(drains, []*controlplane.Update{u})
		}
	}
	for _, us := range churn {
		g.pending = append(g.pending, write{updates: us, batch: g.batch, writer: g.writer, net: netEntries(us)})
	}
	g.pending[len(g.pending)-1].end = cs
	for _, us := range drains {
		g.pending = append(g.pending, write{updates: us, batch: g.batch, writer: g.writer, net: netEntries(us)})
	}
	return nil
}

func netEntries(us []*controlplane.Update) int {
	n := 0
	for _, u := range us {
		switch u.Kind {
		case controlplane.InsertEntry:
			n++
		case controlplane.DeleteEntry:
			n--
		}
	}
	return n
}

// next returns the writer's next write.
func (g *writerGen) next() (write, error) {
	if len(g.pending) == 0 {
		if err := g.refill(); err != nil {
			return write{}, err
		}
		g.inDrain = false
	}
	w := g.pending[0]
	g.pending = g.pending[1:]
	if w.end != nil {
		g.inDrain = true
	}
	return w, nil
}

// untilCheckpoint returns the writes that bring the writer to its next
// checkpoint: the end of the current stream's churn part, or, when the
// writer is already draining, the end of the drain. Empty when the
// writer stands at a stream boundary.
func (g *writerGen) untilCheckpoint() []write {
	var out []write
	for len(g.pending) > 0 {
		w, _ := g.next() // pending is non-empty, so next cannot fail
		out = append(out, w)
		if w.end != nil {
			break
		}
	}
	return out
}

// atStreamEnd reports whether the writer's current stream has sent its
// churn part and not yet its drain.
func (g *writerGen) atStreamEnd() bool { return g.inDrain && len(g.pending) > 0 }

// drainRest returns the remaining drain writes of the current stream.
func (g *writerGen) drainRest() []write {
	var out []write
	for len(g.pending) > 0 {
		w, _ := g.next()
		out = append(out, w)
	}
	return out
}

// packetMix is a workload's /exec input: frames with ingress ports,
// grouped into fixed-size requests.
type packetMix struct {
	frames [][]byte
	ports  []uint16
}

const (
	mixPackets     = 512 // distinct frames per run
	packetsPerExec = 64  // frames per /exec request
)

// Per 8 frames: 5 hit installed session-table keys, 2 miss, 1 is
// malformed (a frame truncated inside its IPv4 header).
var mixPattern = [8]byte{'h', 'h', 'm', 'h', 'x', 'h', 'm', 'h'}

// programFlows names, per program, the destinations the packet mix
// aims at and the ingress ports it uses, so that hits traverse the
// tables configured by the representative configuration.
var programFlows = map[string]struct {
	dsts  [][2]uint32 // (IPv4 address, L4 port)
	ports []uint16
}{
	"nat44": {dsts: [][2]uint32{{0xC6336401, 20001}, {0x08080808, 53}}, ports: []uint16{1, 2}},
	"l4lb":  {dsts: [][2]uint32{{0x0A640000, 80}, {0x0A640001, 443}}, ports: []uint16{1, 2, 3}},
}

// newPacketMix builds the mix from the seed. Hits take their source
// address and port from the representative configuration's entries in
// the program's churned table (which the churn streams never touch);
// misses draw both at random.
func newPacketMix(p *progs.Program, seed uint64) (*packetMix, error) {
	flows, ok := programFlows[p.Name]
	if !ok {
		return nil, fmt.Errorf("no packet flows for program %s", p.Name)
	}
	var keys [][2]uint64
	for _, u := range p.Representative() {
		if u.Table == p.BurstTable && u.Kind == controlplane.InsertEntry && len(u.Entry.Matches) >= 2 {
			keys = append(keys, [2]uint64{u.Entry.Matches[0].Value.Uint64(), u.Entry.Matches[1].Value.Uint64()})
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("%s: representative configuration has no %s entries", p.Name, p.BurstTable)
	}
	rng := seed*0x2545f4914f6cdd1d + 0x9e3779b97f4a7c15
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	mix := &packetMix{}
	for i := 0; i < mixPackets; i++ {
		dst := flows.dsts[next()%uint64(len(flows.dsts))]
		src, sport := uint32(next()), uint16(next())
		kind := mixPattern[i%len(mixPattern)]
		if kind != 'm' {
			k := keys[next()%uint64(len(keys))]
			src, sport = uint32(k[0]), uint16(k[1])
		}
		f := udpFrame(src, dst[0], sport, uint16(dst[1]), byte(2+next()%62), uint16(i))
		if kind == 'x' {
			f = f[:14+1+int(next()%18)]
		}
		mix.frames = append(mix.frames, f)
		mix.ports = append(mix.ports, flows.ports[next()%uint64(len(flows.ports))])
	}
	return mix, nil
}

// udpFrame is an Ethernet/IPv4/UDP frame with a 4-byte payload.
func udpFrame(src, dst uint32, sport, dport uint16, ttl byte, id uint16) []byte {
	f := make([]byte, 14+20+8+4)
	copy(f[0:6], []byte{0x02, 0, 0, 0, 0, 0x01})
	copy(f[6:12], []byte{0x02, 0, 0, 0, 0, 0x02})
	binary.BigEndian.PutUint16(f[12:], 0x0800)
	ip := f[14:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], 32)
	binary.BigEndian.PutUint16(ip[4:], id)
	ip[8] = ttl
	ip[9] = 17
	binary.BigEndian.PutUint32(ip[12:], src)
	binary.BigEndian.PutUint32(ip[16:], dst)
	udp := ip[20:]
	binary.BigEndian.PutUint16(udp[0:], sport)
	binary.BigEndian.PutUint16(udp[2:], dport)
	binary.BigEndian.PutUint16(udp[4:], 12)
	copy(udp[8:], []byte{0xde, 0xad, 0xbe, 0xef})
	return f
}

// request returns the i-th /exec request's frames and ports.
func (m *packetMix) request(i int) ([][]byte, []uint16) {
	n := len(m.frames) / packetsPerExec
	off := (i % n) * packetsPerExec
	return m.frames[off : off+packetsPerExec], m.ports[off : off+packetsPerExec]
}
