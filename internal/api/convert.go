package api

import (
	"encoding/hex"

	"teechain/internal/cryptoutil"
)

// FormatIdentity renders an enclave identity as lowercase hex — the
// canonical external identity spelling (control output, multihop path
// arguments, logs).
func FormatIdentity(id cryptoutil.PublicKey) string {
	return hex.EncodeToString(id[:])
}

// ParseIdentity parses the FormatIdentity spelling back into a key.
func ParseIdentity(s string) (cryptoutil.PublicKey, error) {
	var id cryptoutil.PublicKey
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(id) {
		return id, Errorf(CodeBadRequest, "%q is not a %d-byte hex identity", s, len(id))
	}
	copy(id[:], raw)
	return id, nil
}
