//go:build simmutation

package core

// Building with -tags simmutation plants a deliberate safety bug: 2-safe
// transactions no longer force the replica's log before the client is
// acknowledged (batchForce.note skips them, message and commit record alike).
// The cluster LOOKS healthy — the bug only surfaces when a total failure
// destroys every volatile buffer and recovery must rebuild committed state
// from what was actually forced.
//
// This exists to prove the scenario fuzzer has teeth: the mutation self-test
// (internal/sim/fuzz, TestMutationSelfTest) asserts the invariant suite
// catches the lost acknowledged transaction within a bounded seed sweep.
// Never build production binaries with this tag.
const mutationSkip2SafeForce = true
