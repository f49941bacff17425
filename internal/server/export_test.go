package server

// ForceCheckpoint captures and writes a checkpoint now, whatever the
// slot holds — what the scheduled-slot cadence does on a timer-driven
// tier, whose worker finishes a round while the next slot is already
// accepting demand. Tests only.
func (s *Server) ForceCheckpoint() { s.writeCheckpoint() }
