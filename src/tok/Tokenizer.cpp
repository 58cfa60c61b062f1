//===- Tokenizer.cpp - UnigramLM subword tokenizer ---------------------------===//

#include "tok/Tokenizer.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>

using namespace slade;
using namespace slade::tok;

namespace {

/// The pre-tokenizer's one scan: calls \p F(Space, Begin, Len) for each
/// atom of \p Text in order, where Space says whitespace preceded it.
template <typename AtomFn>
void forEachAtom(const std::string &Text, AtomFn &&F) {
  bool PendingSpace = false;
  size_t I = 0, N = Text.size();
  auto Emit = [&](size_t Begin, size_t Len) {
    F(PendingSpace, Begin, Len);
    PendingSpace = false;
  };
  while (I < N) {
    unsigned char C = static_cast<unsigned char>(Text[I]);
    if (std::isspace(C)) {
      PendingSpace = true;
      ++I;
      continue;
    }
    if (std::isdigit(C)) {
      // Numbers split digit-by-digit (§IV): 512 -> [5, 1, 2].
      Emit(I++, 1);
      continue;
    }
    if (std::isalpha(C) || C == '_' || C == '.') {
      // Identifiers, keywords, mnemonics, and local labels (.L4 keeps its
      // dot so assembly labels stay word-like; digits inside identifiers
      // stay attached).
      size_t Start = I;
      ++I;
      while (I < N) {
        unsigned char D = static_cast<unsigned char>(Text[I]);
        if (std::isalnum(D) || D == '_')
          ++I;
        else
          break;
      }
      Emit(Start, I - Start);
      continue;
    }
    // Punctuation: every sign is its own token (§IV).
    Emit(I++, 1);
  }
}

} // namespace

std::vector<std::string> slade::tok::preTokenize(const std::string &Text) {
  std::vector<std::string> Atoms;
  forEachAtom(Text, [&](bool Space, size_t Begin, size_t Len) {
    std::string Atom = Space ? metaspace() : "";
    Atom.append(Text, Begin, Len);
    Atoms.push_back(std::move(Atom));
  });
  return Atoms;
}

void Tokenizer::rebuildIndex() {
  // Grow the trie with sorted child maps, then flatten it.
  std::vector<std::map<unsigned char, int>> Kids(1);
  std::vector<int> Ids(1, -1);
  for (size_t I = 0; I < Pieces.size(); ++I) {
    int Node = 0;
    for (char Ch : Pieces[I]) {
      unsigned char C = static_cast<unsigned char>(Ch);
      auto It = Kids[static_cast<size_t>(Node)].find(C);
      if (It != Kids[static_cast<size_t>(Node)].end()) {
        Node = It->second;
        continue;
      }
      int New = static_cast<int>(Kids.size());
      Kids[static_cast<size_t>(Node)][C] = New;
      Kids.emplace_back();
      Ids.push_back(-1);
      Node = New;
    }
    Ids[static_cast<size_t>(Node)] = static_cast<int>(I);
  }
  Nodes.assign(Kids.size(), TrieNode());
  EdgeByte.clear();
  EdgeChild.clear();
  for (size_t N = 0; N < Kids.size(); ++N) {
    Nodes[N].Id = Ids[N];
    Nodes[N].FirstEdge = static_cast<uint32_t>(EdgeByte.size());
    Nodes[N].NumEdges = static_cast<uint32_t>(Kids[N].size());
    for (const auto &[C, Child] : Kids[N]) {
      EdgeByte.push_back(C);
      EdgeChild.push_back(Child);
    }
  }
  std::fill(std::begin(RootChild), std::end(RootChild), -1);
  for (const auto &[C, Child] : Kids[0])
    RootChild[C] = Child;
  const char *MS = metaspace();
  MetaspaceNode[0] = 0;
  for (int K = 0; K < 3; ++K)
    MetaspaceNode[K + 1] =
        MetaspaceNode[K] < 0
            ? -1
            : child(MetaspaceNode[K], static_cast<unsigned char>(MS[K]));
}

int Tokenizer::child(int Node, unsigned char C) const {
  if (Node == 0)
    return RootChild[C];
  const TrieNode &T = Nodes[static_cast<size_t>(Node)];
  for (uint32_t E = T.FirstEdge, End = T.FirstEdge + T.NumEdges; E < End;
       ++E)
    if (EdgeByte[E] == C)
      return EdgeChild[E];
  return -1;
}

/// Viterbi over the atom's bytes. Each reachable start walks the trie
/// forward, offering every piece that starts there (or the unknown-byte
/// fallback for a single uncovered byte) to the position it ends at.
/// Starts run in ascending order, so each end position sees its
/// candidates in ascending-start order and the strict `>` keeps the
/// first of equal scores: the same choice as scanning every substring
/// that ends at a position from its leftmost start.
void Tokenizer::segment(bool Space, const char *Text, size_t Len,
                        size_t Window, SegmentScratch &S,
                        std::vector<int> *Out) const {
  const size_t Ms = Space ? 3 : 0;
  const size_t N = Ms + Len;
  if (S.Best.size() < N + 1) {
    S.Best.resize(N + 1);
    S.BackPiece.resize(N + 1);
    S.BackPos.resize(N + 1);
  }
  float *Best = S.Best.data();
  int *BackPiece = S.BackPiece.data();
  uint32_t *BackPos = S.BackPos.data();
  std::fill(Best, Best + N + 1, -1e30f);
  Best[0] = 0;
  const char *MS = metaspace();
  for (size_t Start = 0; Start < N; ++Start) {
    const float Base = Best[Start];
    if (Base <= -1e29f)
      continue;
    const size_t MaxEnd = std::min(N, Start + Window);
    int Node = 0;
    for (size_t End = Start + 1; End <= MaxEnd; ++End) {
      size_t Pos = End - 1;
      if (Start == 0 && End <= Ms)
        Node = MetaspaceNode[End];
      else
        Node = child(Node, static_cast<unsigned char>(
                               Pos < Ms ? MS[Pos] : Text[Pos - Ms]));
      int Id = Node >= 0 ? Nodes[static_cast<size_t>(Node)].Id : -1;
      float Score;
      if (Id >= 0) {
        Score = Base + LogProbs[static_cast<size_t>(Id)];
      } else if (End - Start == 1) {
        Id = UnkId;
        Score = Base + UnkPenalty;
      } else if (Node < 0) {
        break;
      } else {
        continue;
      }
      if (Score > Best[End]) {
        Best[End] = Score;
        BackPiece[End] = Id;
        BackPos[End] = static_cast<uint32_t>(Start);
      }
      if (Node < 0)
        break;
    }
  }
  size_t Mark = Out->size();
  for (size_t Pos = N; Pos > 0; Pos = BackPos[Pos])
    Out->push_back(BackPiece[Pos]);
  std::reverse(Out->begin() + static_cast<long>(Mark), Out->end());
}

std::vector<int> Tokenizer::encode(const std::string &Text) const {
  // Per-thread buffers: encode runs concurrently on serving threads.
  thread_local SegmentScratch S;
  std::vector<int> Out;
  forEachAtom(Text, [&](bool Space, size_t Begin, size_t Len) {
    segment(Space, Text.data() + Begin, Len, EncodeWindow, S, &Out);
  });
  return Out;
}

std::string Tokenizer::decode(const std::vector<int> &Ids) const {
  std::string Out;
  for (int Id : Ids) {
    if (Id == PadId || Id == BosId || Id == EosId)
      continue;
    const std::string &P =
        Id >= 0 && static_cast<size_t>(Id) < Pieces.size()
            ? Pieces[static_cast<size_t>(Id)]
            : Pieces[UnkId];
    Out += P;
  }
  return replaceAll(std::move(Out), metaspace(), " ");
}

Tokenizer Tokenizer::train(const std::vector<std::string> &Texts,
                           const Config &Cfg) {
  // 1. Atom frequency table.
  std::map<std::string, int64_t> AtomFreq;
  for (const std::string &T : Texts)
    for (const std::string &A : preTokenize(T))
      ++AtomFreq[A];

  // 2. Candidate pieces: all substrings up to MaxPieceLen (character
  //    coverage guaranteed by always keeping single "characters", where a
  //    character may be the 3-byte metaspace followed by one byte).
  std::map<std::string, int64_t> CandScore;
  std::map<std::string, int64_t> CharFreq;
  const std::string MS = metaspace();
  for (const auto &[Atom, Freq] : AtomFreq) {
    for (size_t S = 0; S < Atom.size(); ++S) {
      // Do not start a piece in the middle of the metaspace bytes.
      if (S > 0 && S < MS.size() && Atom.compare(0, MS.size(), MS) == 0)
        continue;
      for (size_t L = 1; L <= Cfg.MaxPieceLen + 3 && S + L <= Atom.size();
           ++L) {
        std::string Piece = Atom.substr(S, L);
        CandScore[Piece] += Freq * static_cast<int64_t>(L);
      }
      size_t CharLen = 1;
      if (Atom.compare(S, MS.size(), MS) == 0)
        CharLen = S + MS.size() < Atom.size() ? MS.size() + 1 : MS.size();
      CharFreq[Atom.substr(S, CharLen)] += Freq;
      if (CharLen > 1)
        CharFreq[Atom.substr(S, 1)] += 0; // Keep raw bytes available too.
    }
  }

  Tokenizer Tok;
  Tok.Pieces = {"<pad>", "<s>", "</s>", "<unk>"};
  // Alphabet first. Full character coverage (§IV: "unseen tokens can
  // always be built from seen subwords, even character by character")
  // requires both the bare and the metaspace-prefixed variant of every
  // observed character.
  std::set<std::string> Alphabet;
  Alphabet.insert(MS);
  // Printable ASCII is always covered (the paper's alphabet is
  // "essentially the ASCII alphabet").
  for (char C = 0x21; C < 0x7f; ++C) {
    Alphabet.insert(std::string(1, C));
    Alphabet.insert(MS + std::string(1, C));
  }
  for (const auto &[Piece, Freq] : CharFreq) {
    std::string Base = Piece;
    if (startsWith(Base, MS))
      Base = Base.substr(MS.size());
    if (Base.empty())
      continue;
    Alphabet.insert(Base);
    Alphabet.insert(MS + Base);
  }
  for (const std::string &Piece : Alphabet)
    Tok.Pieces.push_back(Piece);
  CharFreq.clear();
  for (const std::string &Piece : Alphabet)
    CharFreq[Piece] = 1; // Alphabet marker for the pruning stage below.
  // Then the highest-scoring multi-character candidates.
  std::vector<std::pair<int64_t, std::string>> Ranked;
  for (const auto &[Piece, Score] : CandScore)
    if (!CharFreq.count(Piece))
      Ranked.push_back({Score, Piece});
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
    if (A.first != B.first)
      return A.first > B.first;
    return A.second < B.second;
  });
  size_t Budget = Cfg.VocabSize > Tok.Pieces.size()
                      ? Cfg.VocabSize - Tok.Pieces.size()
                      : 0;
  // Over-seed, then let EM pruning pick the final set.
  size_t Seed = std::min(Ranked.size(), Budget * 3 + 32);
  for (size_t I = 0; I < Seed; ++I)
    Tok.Pieces.push_back(Ranked[I].second);
  Tok.LogProbs.assign(Tok.Pieces.size(), -10.0f);
  Tok.rebuildIndex();

  // 3. Hard-EM: Viterbi counts, re-estimate, prune back to VocabSize.
  //    Candidates reach MaxPieceLen + 3 bytes; the window adds the same
  //    4-byte slack EncodeWindow has over encode's 24.
  const size_t TrainWindow = Cfg.MaxPieceLen + 7;
  SegmentScratch S;
  std::vector<int> Ids;
  for (int Iter = 0; Iter < Cfg.EMIterations; ++Iter) {
    std::vector<int64_t> Counts(Tok.Pieces.size(), 0);
    int64_t Total = 0;
    for (const auto &[Atom, Freq] : AtomFreq) {
      Ids.clear();
      Tok.segment(/*Space=*/false, Atom.data(), Atom.size(), TrainWindow, S,
                  &Ids);
      for (int Id : Ids) {
        Counts[static_cast<size_t>(Id)] += Freq;
        Total += Freq;
      }
    }
    bool LastIter = Iter == Cfg.EMIterations - 1;
    size_t AlphabetEnd = 4 + CharFreq.size();
    if (!LastIter) {
      // Prune the worst-used multi-char pieces, keeping the alphabet.
      std::vector<std::pair<int64_t, size_t>> Usage;
      for (size_t I = AlphabetEnd; I < Tok.Pieces.size(); ++I)
        Usage.push_back({Counts[I], I});
      std::sort(Usage.begin(), Usage.end(), [](const auto &A, const auto &B) {
        if (A.first != B.first)
          return A.first > B.first;
        return A.second < B.second;
      });
      size_t Keep = Cfg.VocabSize > AlphabetEnd
                        ? Cfg.VocabSize - AlphabetEnd
                        : 0;
      std::vector<std::string> NewPieces(Tok.Pieces.begin(),
                                         Tok.Pieces.begin() +
                                             static_cast<long>(AlphabetEnd));
      std::vector<int64_t> NewCounts(Counts.begin(),
                                     Counts.begin() +
                                         static_cast<long>(AlphabetEnd));
      for (size_t I = 0; I < Usage.size() && I < Keep; ++I) {
        NewPieces.push_back(Tok.Pieces[Usage[I].second]);
        NewCounts.push_back(Usage[I].first);
      }
      Tok.Pieces = std::move(NewPieces);
      Counts = std::move(NewCounts);
      Tok.rebuildIndex();
    }
    // Re-estimate probabilities with add-one smoothing.
    Tok.LogProbs.assign(Tok.Pieces.size(), 0.0f);
    double Denom = static_cast<double>(Total) +
                   static_cast<double>(Tok.Pieces.size());
    for (size_t I = 0; I < Tok.Pieces.size(); ++I)
      Tok.LogProbs[I] = static_cast<float>(
          std::log((static_cast<double>(Counts[I]) + 1.0) / Denom));
  }
  return Tok;
}

Status Tokenizer::save(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return Status::error("cannot open " + Path + " for writing");
  uint64_t N = Pieces.size();
  std::fwrite(&N, sizeof(N), 1, F);
  for (size_t I = 0; I < Pieces.size(); ++I) {
    uint32_t L = static_cast<uint32_t>(Pieces[I].size());
    std::fwrite(&L, sizeof(L), 1, F);
    std::fwrite(Pieces[I].data(), 1, L, F);
    std::fwrite(&LogProbs[I], sizeof(float), 1, F);
  }
  std::fclose(F);
  return Status::success();
}

Expected<Tokenizer> Tokenizer::load(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Expected<Tokenizer>::error("cannot open " + Path);
  Tokenizer Tok;
  uint64_t N = 0;
  if (std::fread(&N, sizeof(N), 1, F) != 1 || N > 1000000) {
    std::fclose(F);
    return Expected<Tokenizer>::error("corrupt tokenizer file " + Path);
  }
  Tok.Pieces.resize(N);
  Tok.LogProbs.resize(N);
  for (uint64_t I = 0; I < N; ++I) {
    uint32_t L = 0;
    if (std::fread(&L, sizeof(L), 1, F) != 1 || L > 4096) {
      std::fclose(F);
      return Expected<Tokenizer>::error("corrupt tokenizer file " + Path);
    }
    Tok.Pieces[I].resize(L);
    if (L && std::fread(Tok.Pieces[I].data(), 1, L, F) != L) {
      std::fclose(F);
      return Expected<Tokenizer>::error("corrupt tokenizer file " + Path);
    }
    if (std::fread(&Tok.LogProbs[I], sizeof(float), 1, F) != 1) {
      std::fclose(F);
      return Expected<Tokenizer>::error("corrupt tokenizer file " + Path);
    }
  }
  std::fclose(F);
  Tok.rebuildIndex();
  return Tok;
}
