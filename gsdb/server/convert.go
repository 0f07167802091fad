package server

import "groupsafe/internal/server"

// toInternal maps the public configuration onto the engine's server config.
// The public struct exists so embedding programs depend only on gsdb types;
// field semantics are identical.
func toInternal(cfg Config) server.Config {
	return server.Config{
		ID:                cfg.ID,
		Members:           cfg.Members,
		ClientAddr:        cfg.ClientAddr,
		WALDir:            cfg.WALDir,
		Level:             cfg.Level,
		Items:             cfg.Items,
		ExecTimeout:       cfg.ExecTimeout,
		HeartbeatInterval: cfg.HeartbeatInterval,
		SuspectTimeout:    cfg.SuspectTimeout,
		ResyncInterval:    cfg.ResyncInterval,
		Logf:              cfg.Logf,
	}
}
