// teechain-node is a deployed Teechain node: one enclave hosted over
// real TCP sockets (internal/transport), driven through its control
// port, which speaks the typed, versioned control-plane API
// (internal/api): the Go client SDK internal/api/client, the harness,
// the benchmark and teechain-ctl all use it.
// N-node topologies — hub-and-spoke, multihop chains, committees —
// run as real processes, one teechain-node each.
//
// One node in a cluster owns the blockchain and serves it to the rest
// (-chain-listen); the others dial it (-chain). A deployment shares an
// attestation authority seed (-authority).
//
// Example 3-node cluster (see README.md for the walkthrough):
//
//	teechain-node -name hub    -listen :7100 -control :7101 -chain-listen :7102
//	teechain-node -name spoke1 -listen :7200 -control :7201 -chain localhost:7102 -peers localhost:7100
//	teechain-node -name spoke2 -listen :7300 -control :7301 -chain localhost:7102 -peers localhost:7100
//
//	teechain-ctl -c localhost:7201 attest hub
//	teechain-ctl -c localhost:7201 open hub
//	teechain-ctl -c localhost:7201 fund <channel> 100000
//	teechain-ctl -c localhost:7201 pay <channel> 10 100
//	teechain-ctl -c localhost:7201 settle <channel>
//	teechain-ctl -c localhost:7201 mine
//	teechain-ctl -c localhost:7201 balance
//
// Flags may also come from a JSON config file (-config); explicit flags
// override file values. -pprof serves net/http/pprof on a dedicated
// port for live profiling of a deployed node.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: live profiling of deployed nodes
	"os"
	"os/signal"
	"strings"
	"syscall"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/tee"
	"teechain/internal/transport"
)

// nodeConfig is the JSON config file schema; zero values defer to
// flags/defaults.
type nodeConfig struct {
	Name             string   `json:"name"`
	Listen           string   `json:"listen"`
	Control          string   `json:"control"`
	Peers            []string `json:"peers"`
	Chain            string   `json:"chain"`
	ChainListen      string   `json:"chain_listen"`
	Authority        string   `json:"authority"`
	WalletSeed       string   `json:"wallet_seed"`
	MinConfirmations uint64   `json:"min_confirmations"`
	Pprof            string   `json:"pprof"`
	Data             string   `json:"data"`
	FeeBase          int64    `json:"fee_base"`
	FeeRatePPM       uint64   `json:"fee_rate_ppm"`
}

func main() {
	var (
		configPath  = flag.String("config", "", "JSON config file; flags override its values")
		name        = flag.String("name", "", "node name, unique within the deployment (required)")
		listen      = flag.String("listen", "", "peer listen address, e.g. :7100")
		control     = flag.String("control", "", "control API listen address (required)")
		peers       = flag.String("peers", "", "comma-separated peer addresses to dial")
		chainAddr   = flag.String("chain", "", "chain endpoint address to dial")
		chainListen = flag.String("chain-listen", "", "serve an in-process chain on this address (the cluster's ledger owner)")
		authority   = flag.String("authority", "", "shared attestation authority seed (default: \"teechain\")")
		walletSeed  = flag.String("wallet-seed", "", "wallet key seed (default: node name)")
		minConf     = flag.Uint64("min-confirmations", 0, "deposit approval depth (default 1)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
		dataDir     = flag.String("data", "", "data directory for durable enclave state (WAL + sealed snapshots); empty = in-memory only")
		feeBase     = flag.Int64("fee-base", 0, "flat forwarding fee charged per relayed payment (default 0: relay for free)")
		feeRate     = flag.Uint64("fee-rate", 0, "proportional forwarding fee in parts per million of the forwarded amount, 0..1000000 (default 0)")
	)
	flag.Parse()

	cfg := nodeConfig{}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatalf("reading config: %v", err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			log.Fatalf("parsing config %s: %v", *configPath, err)
		}
	}
	override := func(dst *string, v string) {
		if v != "" {
			*dst = v
		}
	}
	override(&cfg.Name, *name)
	override(&cfg.Listen, *listen)
	override(&cfg.Control, *control)
	override(&cfg.Chain, *chainAddr)
	override(&cfg.ChainListen, *chainListen)
	override(&cfg.Authority, *authority)
	override(&cfg.WalletSeed, *walletSeed)
	override(&cfg.Pprof, *pprofAddr)
	override(&cfg.Data, *dataDir)
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
	}
	if *minConf != 0 {
		cfg.MinConfirmations = *minConf
	}
	if *feeBase != 0 {
		cfg.FeeBase = *feeBase
	}
	if *feeRate != 0 {
		cfg.FeeRatePPM = *feeRate
	}
	// Reject a malformed policy before the node boots: a typo'd fee
	// should die here with the offending value, not surface later as a
	// generic enclave-boot failure.
	if cfg.FeeBase < 0 {
		log.Fatalf("teechain-node: -fee-base %d is negative", cfg.FeeBase)
	}
	if cfg.FeeRatePPM > 1_000_000 {
		log.Fatalf("teechain-node: -fee-rate %d exceeds 1000000 ppm (100%%)", cfg.FeeRatePPM)
	}
	if cfg.Authority == "" {
		cfg.Authority = "teechain"
	}
	if cfg.Name == "" {
		log.Fatal("teechain-node: -name (or config name) is required")
	}
	if cfg.Control == "" {
		log.Fatal("teechain-node: -control (or config control) is required")
	}
	if (cfg.Chain == "") == (cfg.ChainListen == "") {
		log.Fatal("teechain-node: exactly one of -chain and -chain-listen is required")
	}

	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg nodeConfig) error {
	auth, err := tee.NewAuthority(cfg.Authority)
	if err != nil {
		return err
	}

	if cfg.Pprof != "" {
		// net/http/pprof registers its handlers on the default mux; a
		// dedicated listener keeps profiling off the protocol ports.
		ln, err := net.Listen("tcp", cfg.Pprof)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer ln.Close()
		go func() {
			if err := http.Serve(ln, nil); err != nil && !strings.Contains(err.Error(), "use of closed") {
				log.Printf("%s: pprof server: %v", cfg.Name, err)
			}
		}()
		log.Printf("%s: pprof on http://%s/debug/pprof/", cfg.Name, ln.Addr())
	}

	// Chain access: own the ledger and serve it, or dial the owner.
	var access transport.ChainAccess
	var chainSrv *transport.ChainServer
	if cfg.ChainListen != "" {
		lc := transport.NewLocalChain(chain.New())
		ln, err := net.Listen("tcp", cfg.ChainListen)
		if err != nil {
			return fmt.Errorf("chain listener: %w", err)
		}
		chainSrv = transport.ServeChain(ln, lc)
		defer chainSrv.Close()
		log.Printf("%s: serving chain on %s", cfg.Name, ln.Addr())
		access = lc
	} else {
		rc, err := transport.DialChain(cfg.Chain)
		if err != nil {
			return err
		}
		defer rc.Close()
		access = rc
	}

	host, err := transport.NewHost(transport.Config{
		Name:             cfg.Name,
		Authority:        auth,
		Chain:            access,
		WalletSeed:       cfg.WalletSeed,
		MinConfirmations: cfg.MinConfirmations,
		DataDir:          cfg.Data,
		FeeBase:          chain.Amount(cfg.FeeBase),
		FeeRatePPM:       uint32(cfg.FeeRatePPM),
		Logf:             log.Printf,
	})
	if err != nil {
		return err
	}
	defer host.Close()
	if cfg.FeeBase != 0 || cfg.FeeRatePPM != 0 {
		log.Printf("%s: forwarding fee policy: base %d + %d ppm", cfg.Name, cfg.FeeBase, cfg.FeeRatePPM)
	}

	if cfg.Listen != "" {
		addr, err := host.Listen(cfg.Listen)
		if err != nil {
			return fmt.Errorf("peer listener: %w", err)
		}
		log.Printf("%s: listening for peers on %s", cfg.Name, addr)
	}
	for _, peer := range cfg.Peers {
		peer = strings.TrimSpace(peer)
		if peer == "" {
			continue
		}
		if err := host.DialPeer(peer); err != nil {
			return err
		}
		log.Printf("%s: dialing peer %s", cfg.Name, peer)
	}

	ctlLn, err := net.Listen("tcp", cfg.Control)
	if err != nil {
		return fmt.Errorf("control listener: %w", err)
	}
	ctl := api.Serve(ctlLn, host.API(), log.Printf)
	defer ctl.Close()
	id := host.Identity()
	log.Printf("%s: control API v%d on %s, identity %x",
		cfg.Name, api.Version, ctlLn.Addr(), id[:])

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("%s: %v, shutting down", cfg.Name, s)
	// Close the host before the control server (the defers run in the
	// opposite order): a closing host fails blocked control waits fast
	// (ErrClosed -> CodeUnavailable), so queued payment completions
	// cannot hold shutdown for their full timeouts. Host.Close is
	// idempotent; the deferred call becomes a no-op.
	host.Close()
	return nil
}
