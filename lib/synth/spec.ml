type status = Solved | Timeout

type result = {
  status : status;
  chains : Stp_chain.Chain.t list;
  gates : int option;
  elapsed : float;
}

type options = {
  max_gates : int;
  solution_cap : int;
  all_shapes : bool;
  use_dsd : bool;
  basis : Stp_chain.Gate.code list option;
  max_depth : int option;
}

let default_options =
  { max_gates = 14; solution_cap = 2000; all_shapes = false;
    use_dsd = true; basis = None; max_depth = None }

let solved ~chains ~gates ~elapsed = { status = Solved; chains; gates = Some gates; elapsed }

let timed_out ~elapsed = { status = Timeout; chains = []; gates = None; elapsed }
