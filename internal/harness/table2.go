package harness

import (
	"fmt"
	"time"

	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/lightning"
)

// Table 2: latency of payment channel operations — channel creation,
// replica creation, deposit association/dissociation — under the
// fault-tolerance spectrum, against LN's one-hour channel creation.

// Table2Row is one operation's measurement.
type Table2Row struct {
	Operation string
	Local     time.Duration
	// Outsourced is the latency when driven by a TEE-less client
	// (zero when not applicable).
	Outsourced time.Duration
}

// RunTable2 measures every row.
func RunTable2() ([]Table2Row, error) {
	rows := []Table2Row{{
		Operation: "LN channel creation",
		Local:     lightning.ChannelOpenLatency(chain.DefaultBlockInterval),
	}}

	create, err := measureChannelCreation()
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table2Row{Operation: "Teechain channel creation", Local: create})

	outs, err := measureOutsourcedChannelCreation()
	if err != nil {
		return nil, err
	}
	rows[len(rows)-1].Outsourced = outs

	replica, err := measureReplicaCreation()
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table2Row{Operation: "Replica creation", Local: replica})

	for _, spec := range []struct {
		name   string
		sites  []Site
		stable bool
	}{
		{name: "Associate/dissociate (no fault tolerance)"},
		{name: "Associate/dissociate (one backup, IL)", sites: []Site{SiteIL}},
		{name: "Associate/dissociate (two backups, IL & UK)", sites: []Site{SiteIL, SiteUK}},
		{name: "Associate/dissociate (three backups, IL, US & UK)", sites: []Site{SiteIL, SiteUK, SiteUS}},
		{name: "Associate/dissociate (stable storage)", stable: true},
	} {
		lat, err := measureAssociate(spec.sites, spec.stable)
		if err != nil {
			return nil, fmt.Errorf("table2 %q: %w", spec.name, err)
		}
		rows = append(rows, Table2Row{Operation: spec.name, Local: lat})
	}
	return rows, nil
}

// measureChannelCreation times attestation plus channel opening between
// US and UK1 — the full path from strangers to a usable channel.
func measureChannelCreation() (time.Duration, error) {
	d, err := NewDeployment()
	if err != nil {
		return 0, err
	}
	us, err := d.AddNode("US", SiteUS, core.NodeConfig{})
	if err != nil {
		return 0, err
	}
	uk, err := d.AddNode("UK1", SiteUK, core.NodeConfig{})
	if err != nil {
		return 0, err
	}
	start := d.Sim.Now()
	if err := d.Connect(us, uk); err != nil {
		return 0, err
	}
	id, err := us.OpenChannel(uk)
	if err != nil {
		return 0, err
	}
	if err := d.Until(func() bool {
		ca, okA := us.Enclave().State().Channels[id]
		cb, okB := uk.Enclave().State().Channels[id]
		return okA && okB && ca.Open && cb.Open
	}); err != nil {
		return 0, err
	}
	return d.Sim.Now().Sub(start), nil
}

// measureOutsourcedChannelCreation adds the client's own attestation of
// the remote enclave (IL1 verifying US) to channel creation.
func measureOutsourcedChannelCreation() (time.Duration, error) {
	d, err := NewDeployment()
	if err != nil {
		return 0, err
	}
	us, err := d.AddNode("US", SiteUS, core.NodeConfig{Enclave: core.Config{AllowOutsource: true}})
	if err != nil {
		return 0, err
	}
	uk, err := d.AddNode("UK1", SiteUK, core.NodeConfig{})
	if err != nil {
		return 0, err
	}
	client, err := d.AddClient("IL1", SiteIL)
	if err != nil {
		return 0, err
	}
	start := d.Sim.Now()
	if err := client.Attach(us); err != nil {
		return 0, err
	}
	if err := d.Until(client.Attached); err != nil {
		return 0, err
	}
	if err := d.Connect(us, uk); err != nil {
		return 0, err
	}
	id, err := us.OpenChannel(uk)
	if err != nil {
		return 0, err
	}
	if err := d.Until(func() bool {
		ca, okA := us.Enclave().State().Channels[id]
		cb, okB := uk.Enclave().State().Channels[id]
		return okA && okB && ca.Open && cb.Open
	}); err != nil {
		return 0, err
	}
	return d.Sim.Now().Sub(start), nil
}

// measureReplicaCreation times attesting a fresh enclave and attaching
// it to a committee chain.
func measureReplicaCreation() (time.Duration, error) {
	d, err := NewDeployment()
	if err != nil {
		return 0, err
	}
	owner, err := d.AddNode("US", SiteUS, core.NodeConfig{})
	if err != nil {
		return 0, err
	}
	member, err := d.AddNode("US-r1-IL", SiteIL, core.NodeConfig{})
	if err != nil {
		return 0, err
	}
	start := d.Sim.Now()
	if err := d.Connect(owner, member); err != nil {
		return 0, err
	}
	if err := owner.FormCommittee([]*core.Node{member}, 1); err != nil {
		return 0, err
	}
	if err := d.Until(func() bool { return owner.Enclave().CommitteeReady() }); err != nil {
		return 0, err
	}
	return d.Sim.Now().Sub(start), nil
}

// measureAssociate times one deposit association on an established
// US–UK1 channel under the given committee configuration (dissociation
// is symmetric: the same message pattern in reverse).
func measureAssociate(sites []Site, stable bool) (time.Duration, error) {
	d, err := NewDeployment()
	if err != nil {
		return 0, err
	}
	cfg := core.NodeConfig{StableStorage: stable}
	us, err := d.AddNode("US", SiteUS, cfg)
	if err != nil {
		return 0, err
	}
	uk, err := d.AddNode("UK1", SiteUK, cfg)
	if err != nil {
		return 0, err
	}
	if err := buildCommittee(d, us, "US", sites); err != nil {
		return 0, err
	}
	if err := buildCommittee(d, uk, "UK1", ukSitesFor(sites)); err != nil {
		return 0, err
	}
	id, err := d.OpenChannel(us, uk, 0, 0)
	if err != nil {
		return 0, err
	}
	// Create and approve the deposit ahead of time (deposits are made
	// in advance, §4); measure association only.
	point, err := us.CreateDepositInstant(1000)
	if err != nil {
		return 0, err
	}
	if err := d.Until(func() bool {
		rec, ok := us.Enclave().State().Deposits[point]
		return ok && rec.Free
	}); err != nil {
		return 0, err
	}
	if err := us.ApproveDeposit(uk, point); err != nil {
		return 0, err
	}
	if err := d.Until(func() bool {
		return us.Enclave().State().ApprovedMine[uk.Identity()][point]
	}); err != nil {
		return 0, err
	}

	start := d.Sim.Now()
	if err := us.AssociateDeposit(id, point); err != nil {
		return 0, err
	}
	if err := d.Until(func() bool {
		c, ok := uk.Enclave().State().Channels[id]
		return ok && len(c.RemoteDeps) == 1
	}); err != nil {
		return 0, err
	}
	return d.Sim.Now().Sub(start), nil
}

// ukSitesFor mirrors the US party's committee sites for the UK party,
// keeping members in different failure domains (§7.3 setup).
func ukSitesFor(sites []Site) []Site {
	out := make([]Site, len(sites))
	for i, s := range sites {
		switch s {
		case SiteUS:
			out[i] = SiteUS
		case SiteUK:
			out[i] = SiteUK
		default:
			out[i] = SiteIL
		}
	}
	return out
}
