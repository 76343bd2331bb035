package main

import (
	"bytes"
	"fmt"

	"repro/internal/bmv2"
	"repro/internal/client"
	"repro/internal/wire"
)

// execCheck runs the whole packet mix once against the final
// configuration and compares every /exec result with the bmv2
// reference interpreter's on the original program. It returns the
// responses, which the ledger reuses as codec input.
func (b *bench) execCheck() ([]wire.ExecResponse, error) {
	session := b.execSession()
	cfg, err := b.finalConfig(session)
	if err != nil {
		return nil, fmt.Errorf("building the reference configuration: %w", err)
	}
	ref := bmv2.New(b.ast, b.info, cfg)
	c := client.New("http://" + b.pair.active.addr)
	var out []wire.ExecResponse
	for i := 0; i < len(b.mix.frames)/packetsPerExec; i++ {
		frames, ports := b.mix.request(i)
		resp, err := c.ExecBytes(session, frames, ports)
		b.attempt()
		if err != nil {
			b.fail("exec check request %d: %v", i, err)
			continue
		}
		want := make([]bmv2.Result, len(frames))
		for j, f := range frames {
			if want[j], err = ref.Run(bmv2.Packet{Data: f, IngressPort: ports[j]}); err != nil {
				return nil, fmt.Errorf("bmv2 on frame %d: %w", i*packetsPerExec+j, err)
			}
		}
		if err := compareExec(resp.Results, want); err != nil {
			b.fail("exec check request %d: %v", i, err)
		}
		out = append(out, resp)
	}
	return out, nil
}

// compareExec is the packet gate: one result per frame, each
// observably equal to the reference (two drops are equal whatever
// their other fields, as in bmv2.Result.Equal).
func compareExec(got []wire.ExecResult, want []bmv2.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results for %d frames", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Dropped != w.Dropped {
			return fmt.Errorf("frame %d: dropped=%v, bmv2 says %v", i, g.Dropped, w.Dropped)
		}
		if w.Dropped {
			continue
		}
		if g.EgressPort != w.EgressPort || g.McastGrp != w.McastGrp {
			return fmt.Errorf("frame %d: egress %d mcast %d, bmv2 says %d and %d", i, g.EgressPort, g.McastGrp, w.EgressPort, w.McastGrp)
		}
		var emitted []byte
		if g.Emitted != nil {
			var err error
			if emitted, err = wire.ToPacket(*g.Emitted); err != nil {
				return fmt.Errorf("frame %d: %w", i, err)
			}
		}
		if !bytes.Equal(emitted, w.Emitted) {
			return fmt.Errorf("frame %d: emitted %x, bmv2 emits %x", i, emitted, w.Emitted)
		}
	}
	return nil
}
