// teechain-ctl is the operator's command line for a node's control
// port (teechain-node -control): one verb per run, one call of the
// typed client SDK (internal/api/client) per verb. It prints the result
// on stdout and exits 1 when the call fails, 2 on a usage error (no
// address, unknown verb, wrong argument count).
//
//	teechain-ctl -c localhost:7201 attest hub
//	ch=$(teechain-ctl -c localhost:7201 open hub)
//	teechain-ctl -c localhost:7201 fund $ch 100000
//	teechain-ctl -c localhost:7201 pay $ch 10 1000 64
//	teechain-ctl -c localhost:7201 stats
//
// A single value prints alone. A structured result prints one
// "Field value" line per leaf, nested fields and list elements joined
// by dots (Host.PaymentsAcked, Channels.0.Sent); identities print as
// full hex. Verbs that only succeed or fail print nothing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"teechain/internal/api"
	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// verb is one command: its argument synopsis, argument-count bounds
// (max < 0: unbounded) and the SDK call.
type verb struct {
	args     string
	min, max int
	do       func(cc *client.Conn, a []string) (any, error)
}

var verbs = map[string]verb{
	"identity": {"", 0, 0, func(cc *client.Conn, _ []string) (any, error) { return cc.Info().Identity, nil }},
	"wallet":   {"", 0, 0, func(cc *client.Conn, _ []string) (any, error) { return cc.Info().Wallet, nil }},
	"peers":    {"", 0, 0, func(cc *client.Conn, _ []string) (any, error) { return result(cc.Peers()) }},
	"dial":     {"<addr>", 1, 1, func(cc *client.Conn, a []string) (any, error) { return nil, cc.DialPeer(a[0]) }},
	"attest":   {"<peer>", 1, 1, func(cc *client.Conn, a []string) (any, error) { return nil, cc.Attest(a[0]) }},
	"open":     {"<peer>", 1, 1, func(cc *client.Conn, a []string) (any, error) { return result(cc.OpenChannel(a[0])) }},
	"fund": {"<channel> <amount>", 2, 2, func(cc *client.Conn, a []string) (any, error) {
		amount, err := parseAmount(a[1])
		if err != nil {
			return nil, err
		}
		return result(cc.Deposit(wire.ChannelID(a[0]), amount))
	}},
	"pay": {"<channel> <amount> [n [batch]]", 2, 4, pay},
	"paymh": {"<amount> <hop> <hop>...", 3, -1, func(cc *client.Conn, a []string) (any, error) {
		amount, err := parseAmount(a[0])
		if err != nil {
			return nil, err
		}
		return nil, cc.Multihop(amount, a[1:]...)
	}},
	"route": {"<target> <amount>", 2, 2, func(cc *client.Conn, a []string) (any, error) {
		amount, err := parseAmount(a[1])
		if err != nil {
			return nil, err
		}
		return result(cc.Route(a[0], amount))
	}},
	"payroute": {"<target> <amount>", 2, 2, func(cc *client.Conn, a []string) (any, error) {
		amount, err := parseAmount(a[1])
		if err != nil {
			return nil, err
		}
		return result(cc.PayRouted(a[0], amount))
	}},
	"committee": {"<peer>... <m>", 2, -1, func(cc *client.Conn, a []string) (any, error) {
		m, err := parseCount(a[len(a)-1])
		if err != nil {
			return nil, err
		}
		return result(cc.Committee(m, a[:len(a)-1]...))
	}},
	"settle": {"<channel>", 1, 1, func(cc *client.Conn, a []string) (any, error) { return nil, cc.Settle(wire.ChannelID(a[0])) }},
	"balances": {"<channel>", 1, 1, func(cc *client.Conn, a []string) (any, error) {
		mine, remote, err := cc.Balances(wire.ChannelID(a[0]))
		return struct{ Mine, Remote chain.Amount }{mine, remote}, err
	}},
	"mine": {"[n]", 0, 1, func(cc *client.Conn, a []string) (any, error) {
		n := 1
		if len(a) == 1 {
			var err error
			if n, err = parseCount(a[0]); err != nil {
				return nil, err
			}
		}
		height, err := cc.Mine(n)
		return struct{ Height uint64 }{height}, err
	}},
	"balance": {"", 0, 0, func(cc *client.Conn, _ []string) (any, error) { return result(cc.Balance()) }},
	"stats":   {"", 0, 0, func(cc *client.Conn, _ []string) (any, error) { return result(cc.Stats()) }},
	"wal":     {"", 0, 0, func(cc *client.Conn, _ []string) (any, error) { return result(cc.WalStats()) }},
	"snapshot": {"", 0, 0, func(cc *client.Conn, _ []string) (any, error) {
		seq, err := cc.SnapshotNow()
		return struct{ Seq uint64 }{seq}, err
	}},
	"recover": {"", 0, 0, func(cc *client.Conn, _ []string) (any, error) {
		recovered, resumed, err := cc.Recover()
		return struct {
			Recovered bool
			Resumed   int
		}{recovered, resumed}, err
	}},
}

// result adapts a typed SDK return to a verb's.
func result[T any](v T, err error) (any, error) { return v, err }

// pay issues n payments of amount — in one request, or with batch > 1
// in PayBatch frames of that many, all in flight at once — and waits
// for every ack.
func pay(cc *client.Conn, a []string) (any, error) {
	amount, err := parseAmount(a[1])
	if err != nil {
		return nil, err
	}
	n, batch := 1, 1
	if len(a) > 2 {
		if n, err = parseCount(a[2]); err != nil {
			return nil, err
		}
	}
	if len(a) > 3 {
		if batch, err = parseCount(a[3]); err != nil {
			return nil, err
		}
	}
	ch := wire.ChannelID(a[0])
	acked := struct{ Acked int }{n}
	if batch == 1 {
		return acked, cc.Pay(ch, amount, n)
	}
	amounts := make([]chain.Amount, batch)
	for i := range amounts {
		amounts[i] = amount
	}
	var pending []*client.Pending
	for sent := 0; sent < n; sent += batch {
		p, err := cc.PayBatchAsync(ch, amounts[:min(batch, n-sent)])
		if err != nil {
			return nil, err
		}
		pending = append(pending, p)
	}
	for _, p := range pending {
		if err := p.Wait(); err != nil {
			return nil, err
		}
	}
	return acked, nil
}

// parseAmount parses a strictly positive currency amount.
func parseAmount(s string) (chain.Amount, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad amount %q", s)
	}
	return chain.Amount(v), nil
}

// parseCount parses a strictly positive count (payments, batch size,
// blocks, signature threshold).
func parseCount(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("bad count %q", s)
	}
	return v, nil
}

// show prints v: a single value alone, a struct or list as one
// "path value" line per leaf. Embedded response headers are skipped.
func show(w io.Writer, path string, v reflect.Value) {
	if !v.IsValid() {
		return
	}
	switch x := v.Interface().(type) {
	case cryptoutil.PublicKey:
		line(w, path, api.FormatIdentity(x))
		return
	case fmt.Stringer:
		line(w, path, x.String())
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		show(w, path, v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && !f.Anonymous {
				show(w, join(path, f.Name), v.Field(i))
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			show(w, join(path, strconv.Itoa(i)), v.Index(i))
		}
	default:
		line(w, path, fmt.Sprint(v.Interface()))
	}
}

func join(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

func line(w io.Writer, path, value string) {
	if path == "" {
		fmt.Fprintln(w, value)
		return
	}
	fmt.Fprintf(w, "%s %s\n", path, value)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: teechain-ctl -c <control-addr> <verb> [args]")
	names := make([]string, 0, len(verbs))
	for name := range verbs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %s\n", synopsis(name))
	}
}

func synopsis(name string) string { return strings.TrimSpace(name + " " + verbs[name].args) }

// run executes one command line and returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("teechain-ctl", flag.ContinueOnError)
	addr := fs.String("c", "", "control address of the node (host:port)")
	fs.Usage = func() { usage(fs.Output()) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	args = fs.Args()
	if *addr == "" || len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	v, ok := verbs[args[0]]
	if !ok {
		fmt.Fprintf(os.Stderr, "teechain-ctl: unknown verb %q\n", args[0])
		usage(os.Stderr)
		return 2
	}
	if a := args[1:]; len(a) < v.min || v.max >= 0 && len(a) > v.max {
		fmt.Fprintf(os.Stderr, "usage: teechain-ctl -c <control-addr> %s\n", synopsis(args[0]))
		return 2
	}
	cc, err := client.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "teechain-ctl: %v\n", err)
		return 1
	}
	defer cc.Close()
	out, err := v.do(cc, args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "teechain-ctl: %s: %v\n", args[0], err)
		return 1
	}
	show(stdout, "", reflect.ValueOf(out))
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }
