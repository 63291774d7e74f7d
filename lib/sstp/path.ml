type t = string list

let root = []

let check_segment s =
  if s = "" then invalid_arg "Path: empty segment";
  if String.contains s '/' then invalid_arg "Path: segment contains '/'";
  s

let of_string = function
  | "" -> []
  | s -> List.map check_segment (String.split_on_char '/' s)

let to_string t = String.concat "/" t
let is_root t = t = []
let child t seg = t @ [ check_segment seg ]

let parent = function
  | [] -> None
  | t -> Some (List.filteri (fun i _ -> i < List.length t - 1) t)

let basename t =
  match List.rev t with [] -> None | last :: _ -> Some last

let depth = List.length

let rec is_prefix ~prefix t =
  match prefix, t with
  | [], _ -> true
  | _, [] -> false
  | p :: ps, x :: xs -> String.equal p x && is_prefix ~prefix:ps xs
