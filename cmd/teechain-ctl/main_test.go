package main

import (
	"bytes"
	"strings"
	"testing"

	"teechain/internal/api"
	"teechain/internal/harness"
)

// TestCtlAgainstCluster drives a two-node cluster through teechain-ctl
// alone: attest, open, fund, both pay forms, exact balances, stats, and
// the exit status of every outcome.
func TestCtlAgainstCluster(t *testing.T) {
	c, err := harness.NewCluster("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.ControlAddr("alice")
	ctl := func(args ...string) (string, int) {
		t.Helper()
		var out bytes.Buffer
		code := run(append([]string{"-c", addr}, args...), &out)
		return out.String(), code
	}
	mustRun := func(want string, args ...string) string {
		t.Helper()
		out, code := ctl(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d", args, code)
		}
		if want != "" && out != want {
			t.Fatalf("%v printed %q, want %q", args, out, want)
		}
		return out
	}

	mustRun(api.FormatIdentity(c.Identity("alice"))+"\n", "identity")
	mustRun("", "dial", c.Host("bob").ListenAddr())
	mustRun("", "attest", "bob")
	ch := strings.TrimSpace(mustRun("", "open", "bob"))
	if ch == "" {
		t.Fatal("open printed no channel id")
	}
	mustRun("", "fund", ch, "5000")
	mustRun("Acked 20\n", "pay", ch, "5", "20")
	mustRun("Acked 100\n", "pay", ch, "2", "100", "16")
	mustRun("Mine 4700\nRemote 300\n", "balances", ch)
	stats := mustRun("", "stats")
	for _, want := range []string{"Host.PaymentsAcked 120\n", "Channels.0.Channel " + ch + "\n", "HasCommittee false\n"} {
		if !strings.Contains(stats, want) {
			t.Errorf("stats output lacks %q:\n%s", want, stats)
		}
	}

	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"bogus"}, 2},                 // unknown verb
		{[]string{"pay", ch}, 2},               // too few arguments
		{[]string{"balances", ch, "extra"}, 2}, // too many
		{[]string{"fund", ch, "0"}, 1},         // bad amount
		{[]string{"balances", "no-such-channel"}, 1},
	} {
		if out, code := ctl(tc.args...); code != tc.code || out != "" {
			t.Errorf("%v: exit %d, printed %q; want exit %d, nothing printed", tc.args, code, out, tc.code)
		}
	}
	if code := run([]string{"stats"}, new(bytes.Buffer)); code != 2 {
		t.Errorf("no address: exit %d, want 2", code)
	}
	if code := run([]string{"-c", addr}, new(bytes.Buffer)); code != 2 {
		t.Errorf("no verb: exit %d, want 2", code)
	}
}

func TestParseAmountAndCount(t *testing.T) {
	if v, err := parseAmount("12345"); err != nil || v != 12345 {
		t.Fatalf("parseAmount: %d, %v", v, err)
	}
	for _, bad := range []string{"", "0", "-3", "abc", "9223372036854775808"} {
		if _, err := parseAmount(bad); err == nil {
			t.Fatalf("parseAmount accepted %q", bad)
		}
	}
	if n, err := parseCount("7"); err != nil || n != 7 {
		t.Fatalf("parseCount: %d, %v", n, err)
	}
	for _, bad := range []string{"", "0", "-1", "x"} {
		if _, err := parseCount(bad); err == nil {
			t.Fatalf("parseCount accepted %q", bad)
		}
	}
}
