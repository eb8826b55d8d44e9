// teechain-attack is a byzantine toolkit over internal/attack:
//
//	teechain-attack proxy  -listen addr -upstream addr
//	                       [-corrupt code] [-withhold code] [-replay code]
//	    Frame-aware MITM: point a victim's dial at -listen and watch
//	    which mutations the transport survives. Codes are wire registry
//	    codes (pay=10, replbatchack=35; see internal/wire).
//	teechain-attack forge  -target addr [-channel id] [-amount n]
//	    Dial a host's peer port and inject forged payment frames from
//	    an unattested identity with an unauthenticatable token.
//
// The transaction-delay attack of §2.2 (Lightning theft versus
// Teechain's asynchronous settlement) is `go run ./examples/async-attack`.
//
// Every attack here is expected to FAIL against a healthy deployment —
// rejected frames, not moved money. A run that steals funds is a bug
// report.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync/atomic"

	"teechain/internal/attack"
	"teechain/internal/chain"
	"teechain/internal/wire"
)

const usage = `usage:
  teechain-attack proxy -listen addr -upstream addr [-corrupt code] [-withhold code] [-replay code]
  teechain-attack forge -target addr [-channel id] [-amount n]
`

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "proxy":
		proxyCmd(args)
	case "forge":
		forgeCmd(args)
	default:
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
}

func proxyCmd(args []string) {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address victims dial")
	upstream := fs.String("upstream", "", "real peer address to relay to")
	corrupt := fs.Int("corrupt", 0, "wire code to corrupt (once); 0 disables")
	withhold := fs.Int("withhold", 0, "wire code to withhold (every frame); 0 disables")
	replay := fs.Int("replay", 0, "wire code to record and replay after 3 frames; 0 disables")
	fs.Parse(args)
	if *upstream == "" {
		log.Fatal("proxy: -upstream is required")
	}
	var hits atomic.Uint64
	var ms []attack.Mutator
	if *corrupt != 0 {
		ms = append(ms, attack.CorruptOnce(attack.ClientToServer, byte(*corrupt), &hits))
		ms = append(ms, attack.CorruptOnce(attack.ServerToClient, byte(*corrupt), &hits))
	}
	if *withhold != 0 {
		ms = append(ms, attack.Withhold(attack.ClientToServer, byte(*withhold), -1, &hits))
		ms = append(ms, attack.Withhold(attack.ServerToClient, byte(*withhold), -1, &hits))
	}
	if *replay != 0 {
		ms = append(ms, attack.ReplayAfter(attack.ClientToServer, byte(*replay), 3, &hits))
	}
	p, err := attack.NewProxy(*listen, *upstream, attack.Chain(ms...), log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MITM proxy on %s → %s (ctrl-c to stop)\n", p.Addr(), *upstream)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	p.Close()
	st := p.Stats()
	fmt.Printf("forwarded=%d withheld=%d injected=%d mutated=%d\n",
		st.Forwarded, st.Withheld, st.Injected, hits.Load())
}

func forgeCmd(args []string) {
	fs := flag.NewFlagSet("forge", flag.ExitOnError)
	target := fs.String("target", "", "victim peer port to dial")
	channel := fs.String("channel", "ch-forged", "channel id to claim")
	amount := fs.Int64("amount", 500, "payment amount to forge")
	fs.Parse(args)
	if *target == "" {
		log.Fatal("forge: -target is required")
	}
	mallory, err := attack.ForgeIdentity("cli")
	if err != nil {
		log.Fatal(err)
	}
	frame, err := attack.ForgeFrame(mallory.Public(), []byte("forged-token"),
		&wire.Pay{Channel: wire.ChannelID(*channel), Amount: chain.Amount(*amount), Count: 1})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := attack.Inject(*target, mallory.Public(), "mallory", [][]byte{frame})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sent %d forged frame(s); peer closed: %v\n", rep.FramesSent, rep.PeerClosed)
	fmt.Println("check the victim's stats: the frames must show up as rejected, not as payments")
}
